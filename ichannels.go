// Package ichannels is a simulator-backed reproduction of "IChannels:
// Exploiting Current Management Mechanisms to Create Covert Channels in
// Modern Processors" (Haj-Yahya et al., ISCA 2021).
//
// It provides:
//
//   - a deterministic, picosecond-resolution discrete-event simulator of a
//     modern client SoC's current-management subsystem (voltage regulators
//     with slew-limited ramps, a central PMU with multi-level voltage
//     guardbands and serialized transitions, per-core IDQ throttling, SMT,
//     AVX power gates, Iccmax/Vccmax protection, and a two-stage thermal
//     model), calibrated to the paper's three processors;
//   - the three IChannels covert channels (IccThreadCovert, IccSMTcovert,
//     IccCoresCovert), an instruction-class-inference side channel, and
//     the four baselines the paper compares against (NetSpectre, TurboCC,
//     DFScovert, PowerT; run as baseline-role scenarios);
//   - the paper's three mitigations (per-core VRs, improved throttling,
//     secure mode) and an evaluation harness;
//   - runners that regenerate every figure and table of the paper's
//     evaluation (RunExperiment);
//   - the Scenario API: one declarative, JSON-serializable spec for
//     every run path above, figures included (RunScenario, and
//     RunScenarios for a parallel batch with per-scenario derived
//     seeds), and an HTTP server exposing it as a versioned v1 API with
//     a (scenario, seed) result cache (NewExperimentServer).
//
// Determinism is a hard guarantee throughout: for a fixed seed the
// simulator, every experiment, and every batch (at any parallelism)
// reproduce byte-identical results. See docs/ARCHITECTURE.md.
//
// Quickstart:
//
//	proc := ichannels.CannonLake8121U()
//	m, _ := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: 1})
//	ch, _ := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.CrossCore, proc))
//	ch.Calibrate(8)
//	res, _ := ch.Transmit([]int{1, 0, 1, 1, 0, 0, 1, 0})
//	fmt.Println(res.DecodedBits, res.ThroughputBPS)
package ichannels

import (
	"context"
	"io"
	"net/http"

	"ichannels/internal/core"
	"ichannels/internal/dist"
	"ichannels/internal/ecc"
	"ichannels/internal/engine"
	"ichannels/internal/exp"
	"ichannels/internal/isa"
	"ichannels/internal/mitigate"
	"ichannels/internal/model"
	"ichannels/internal/scenario"
	"ichannels/internal/serve"
	"ichannels/internal/soc"
	"ichannels/internal/store"
	"ichannels/internal/sweep"
	"ichannels/internal/trace"
	"ichannels/internal/units"
)

// ---- Simulated machine ----

// Machine is a fully wired simulated system-on-chip.
type Machine = soc.Machine

// MachineOptions configures a Machine.
type MachineOptions = soc.Options

// NoiseConfig describes OS interrupt/context-switch injection.
type NoiseConfig = soc.NoiseConfig

// AgentFunc adapts a function to a software context bound to a hardware
// thread (Machine.Bind).
type AgentFunc = soc.AgentFunc

// AgentEnv is the execution context handed to agents.
type AgentEnv = soc.Env

// Action and Result are the agent protocol types.
type (
	Action = soc.Action
	Result = soc.Result
)

// Agent action constructors.
var (
	Exec       = soc.Exec
	StopAction = soc.Stop
)

// NewMachine builds a machine from options.
func NewMachine(opts MachineOptions) (*Machine, error) { return soc.New(opts) }

// NoiseWithRates builds a noise config with default event durations.
func NoiseWithRates(interruptsPerSec, ctxSwitchesPerSec float64) NoiseConfig {
	return soc.WithRates(interruptsPerSec, ctxSwitchesPerSec)
}

// ---- Processor profiles ----

// Processor is a calibrated processor profile.
type Processor = model.Processor

// CannonLake8121U is the Cannon Lake part characterized in the paper;
// scenarios name every calibrated profile by its processor field.
var CannonLake8121U = model.CannonLake8121U

// ---- Instruction model ----

// Class is an instruction computational-intensity class.
type Class = isa.Class

// Kernel is an instruction loop.
type Kernel = isa.Kernel

// The seven intensity classes (paper §4/§5.5).
const (
	Scalar64    = isa.Scalar64
	Vec128Light = isa.Vec128Light
	Vec128Heavy = isa.Vec128Heavy
	Vec256Light = isa.Vec256Light
	Vec256Heavy = isa.Vec256Heavy
	Vec512Light = isa.Vec512Light
	Vec512Heavy = isa.Vec512Heavy
)

// KernelFor returns the canonical loop kernel for a class.
func KernelFor(c Class) Kernel { return isa.KernelFor(c) }

// ---- Covert channels (the paper's contribution) ----

// Channel is one configured IChannels covert channel.
type Channel = core.Channel

// ChannelKind selects the variant (SameThread, SMT, CrossCore).
type ChannelKind = core.Kind

// Channel variants.
const (
	SameThread = core.SameThread
	SMT        = core.SMT
	CrossCore  = core.CrossCore
)

// ChannelParams time-boxes covert transactions.
type ChannelParams = core.Params

// TransmitResult reports a covert transmission.
type TransmitResult = core.Result

// Spy is the §6.5 instruction-class-inference side channel.
type Spy = core.Spy

// NewChannel builds a covert channel on a machine.
func NewChannel(m *Machine, p ChannelParams) (*Channel, error) { return core.New(m, p) }

// DefaultChannelParams returns tuned transaction parameters for a kind on
// a processor.
func DefaultChannelParams(kind ChannelKind, p Processor) ChannelParams {
	return core.DefaultParams(kind, p)
}

// NewSpy builds the side-channel observer.
func NewSpy(m *Machine, kind ChannelKind) (*Spy, error) { return core.NewSpy(m, kind) }

// ---- Mitigations ----

// Mitigation identifies one of the paper's §7 defenses.
type Mitigation = mitigate.Kind

// The mitigations of Table 1.
const (
	NoMitigation       = mitigate.None
	PerCoreVR          = mitigate.PerCoreVR
	ImprovedThrottling = mitigate.ImprovedThrottling
	SecureMode         = mitigate.SecureMode
)

// MitigationAssessment grades a channel under a mitigation.
type MitigationAssessment = mitigate.Assessment

// EvaluateMitigation attacks a mitigated machine and grades the outcome.
func EvaluateMitigation(k Mitigation, ch ChannelKind, p Processor, nBits int, seed int64) (*MitigationAssessment, error) {
	return mitigate.Evaluate(k, ch, p, nBits, seed)
}

// ---- Coding (noise recovery, §6.3) ----

// Frame coding helpers: Hamming(7,4) + interleaving + CRC-8 framing.
var (
	EncodeFrame = ecc.EncodeFrame
	DecodeFrame = ecc.DecodeFrame
)

// ---- Measurement ----

// Recorder samples a machine like the paper's NI-DAQ card.
type Recorder = trace.Recorder

// NewRecorder creates a sampler with the given interval.
func NewRecorder(m *Machine, interval Duration) (*Recorder, error) {
	return trace.NewRecorder(m, interval)
}

// ---- Units ----

// Duration is a simulated picosecond span; Hertz is a frequency.
type (
	Duration = units.Duration
	Hertz    = units.Hertz
)

// Duration and frequency constants.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	GHz         = units.GHz
)

// ---- Experiments ----

// Report is a regenerated figure/table.
type Report = exp.Report

// ExperimentInfo describes one registered experiment (ID, paper section,
// description).
type ExperimentInfo = exp.Experiment

// RunExperiment regenerates one of the paper's figures or tables by ID
// (fig6a…fig14c, sevenzip, table1, table2) with an explicit seed.
func RunExperiment(id string, seed int64) (*Report, error) { return exp.Run(id, seed) }

// Experiments lists the registered experiments in definition order.
func Experiments() []ExperimentInfo { return exp.Experiments() }

// ---- Scenario API (v1): one declarative spec for every run ----

// Scenario is the declarative, JSON-serializable description of one
// run: an IChannels channel transmission, a baseline channel, the side
// channel, a mitigation evaluation, or a registered experiment. The
// same spec executes identically from Go (RunScenario), the CLI
// (ichannels scenario run), and the wire (POST /v1/scenarios).
type Scenario = scenario.Scenario

// ScenarioResult is the normalized result envelope every scenario run
// produces (decoded bits, throughput, BER, timing, per-role extras).
type ScenarioResult = scenario.Result

// ScenarioNoise, ScenarioCoding and ScenarioParams are the spec's
// optional sub-objects.
type (
	ScenarioNoise  = scenario.Noise
	ScenarioCoding = scenario.Coding
	ScenarioParams = scenario.Params
)

// RunScenario validates and executes one scenario (spec seed, or
// scenario.DefaultSeed when unset). For a fixed (spec, seed) the
// result's JSON encoding is byte-identical across processes and
// transports.
func RunScenario(ctx context.Context, s Scenario) (*ScenarioResult, error) {
	return scenario.Run(ctx, s)
}

// ScenarioBatchOptions configures a batch of scenarios on the engine's
// worker pool.
type ScenarioBatchOptions = engine.ScenarioOptions

// ScenarioBatch is the outcome of a scenario batch run.
type ScenarioBatch = engine.ScenarioBatch

// RunScenarios executes scenarios on a worker pool with derived
// per-scenario seeds. For a fixed BaseSeed the results are
// byte-identical regardless of Parallel.
func RunScenarios(ctx context.Context, opts ScenarioBatchOptions) (*ScenarioBatch, error) {
	return engine.RunScenarios(ctx, opts)
}

// ScenarioSchemaJSON returns the machine-readable Scenario spec schema
// (the payload of GET /v1/scenarios/schema).
func ScenarioSchemaJSON() []byte { return scenario.SchemaJSON() }

// ChannelKindNames returns every registered channel kind in canonical
// order — the paper's three variants plus the adopted families — all
// valid for scenario roles channel and mitigation-eval.
func ChannelKindNames() []string { return scenario.ChannelKindNames() }

// ChannelKindSource returns the source-paper citation for a registered
// channel kind ("" for unknown names).
func ChannelKindSource(kind string) string { return scenario.KindSource(kind) }

// ChannelKindDescribe returns the one-line description of a registered
// channel kind ("" for unknown names).
func ChannelKindDescribe(kind string) string { return scenario.KindDescribe(kind) }

// ParseScenarioSpecs parses a JSON spec payload — one scenario object
// or a non-empty array — rejecting unknown fields and trailing data.
// The CLI and the HTTP v1 layer share this decoder, so a spec that one
// accepts the other does too.
func ParseScenarioSpecs(data []byte) (specs []Scenario, isArray bool, err error) {
	return scenario.ParseSpecs(data)
}

// NewExperimentServer returns an http.Handler exposing the versioned
// scenario API: GET /v1/experiments, GET /v1/scenarios/schema, POST
// /v1/scenarios with a (scenario, seed) result cache (a paper figure is
// an experiment-role scenario), and POST /v1/sweeps and GET
// /v1/sweeps/schema for parameter grids.
func NewExperimentServer() http.Handler { return serve.New(serve.Options{}).Handler() }

// NewExperimentServerWithStore is NewExperimentServer with a durable
// result store under the in-memory cache: memory misses are served
// from the store before computing, computed results are persisted, and
// a restarted server warms from disk.
func NewExperimentServerWithStore(st ResultStore) http.Handler {
	return serve.New(serve.Options{Store: st}).Handler()
}

// ---- Result store: the durable (scenario hash, seed) corpus ----

// ResultStore is the pluggable persistence contract every execution
// layer accepts: results are content-addressed by (scenario hash,
// effective seed) and immutable by the determinism contract. Set it on
// ScenarioBatchOptions/SweepOptions (directly or via their WithStore
// methods) to make runs fetch-or-compute, or hand it to
// NewExperimentServerWithStore.
type ResultStore = store.Store

// StoreGCOptions bounds what DirResultStore.GCWith retains: entries
// older than MaxAge are removed, then the oldest survivors are evicted
// until the corpus fits MaxBytes — the retention knobs
// `ichannels store gc -max-age -max-bytes` exposes for CI scratch
// corpora. Evicted results are recomputable on demand (determinism),
// so retention trades disk for recompute, never data.
type StoreGCOptions = store.GCOptions

// WriteOnlyStore returns a view of st whose reads always miss: runs
// persist every result but recompute all of them — how `-store`
// without `-resume` re-verifies determinism while (re)materializing
// the corpus.
func WriteOnlyStore(st ResultStore) ResultStore { return store.WriteOnly(st) }

// ---- Directory stores: segments, migration ----

// DirResultStore is the directory store: checksummed envelopes packed
// into append-only segment files with per-segment index sidecars,
// crash-safe rebuild, and live-entry compaction. Besides the
// ResultStore pair it carries maintenance (List, Verify, GC), the
// raw-object Backend verbs, and lifecycle (Close).
type DirResultStore = store.DirStore

// StorePackReport and the bench types are the machine-readable results
// of `ichannels store pack` and `ichannels store bench`.
type (
	StorePackReport   = store.PackReport
	StoreBenchOptions = store.BenchOptions
	StoreBenchReport  = store.BenchReport
)

// OpenStoreDir creates (if needed) and opens a store directory — the
// opener every maintenance surface uses. Many processes may write one
// directory at once; see the store package for the lock rule.
func OpenStoreDir(dir string) (DirResultStore, error) { return store.OpenPacked(dir) }

// OpenResultStore opens a store spec: an http(s):// URL becomes a
// remote store talking to a `serve -share` corpus, anything else a
// store directory. The opener behind every `-store` flag.
func OpenResultStore(spec string) (ResultStore, error) { return store.OpenAuto(spec) }

// IsRemoteStoreSpec reports whether a -store spec names a remote corpus.
func IsRemoteStoreSpec(spec string) bool { return store.IsRemoteSpec(spec) }

// CloseResultStore releases st's resources (segment handles, pending
// compaction) when it has any; stores without lifecycle are a no-op.
func CloseResultStore(st ResultStore) error { return store.CloseStore(st) }

// ---- Resilient shared-corpus tier ----

// ReplicaResultStore is the read-through replica cache that makes the
// shared-corpus tier survivable: a local store layered over a remote
// corpus. Remote hits are verified once and persisted verbatim, local
// hits never touch the network, writes land locally first with an
// async best-effort upstream flush. Because results are immutable,
// the tiers can never disagree about a key's bytes — there is no
// invalidation, only presence.
type (
	ReplicaResultStore = store.ReplicaStore
	StoreSyncReport    = store.SyncReport
)

// StoreTierStats is what the resilient store path counts: retry/breaker
// activity on the remote leg, cache activity on the replica leg. Sweep
// results and GET /v1/stats carry a snapshot when the store has a
// remote behind it.
type StoreTierStats = store.TierStats

// OpenReplicaStore layers a local cache directory over the remote
// corpus at baseURL — what `-store URL -cache DIR` opens. The remote leg carries the default retry policy.
func OpenReplicaStore(cacheDir, baseURL string) (*ReplicaResultStore, error) {
	r, err := store.OpenRemote(baseURL, nil)
	if err != nil {
		return nil, err
	}
	return store.OpenReplica(cacheDir, r.Retry(), store.ReplicaOptions{})
}

// SyncStoreDir reconciles a local store directory against the remote
// corpus at baseURL: every local entry the remote lacks is pushed
// upstream. The recovery path after a partition or a remote wipe —
// `ichannels store sync` drives it.
func SyncStoreDir(ctx context.Context, dir, baseURL string) (*StoreSyncReport, error) {
	local, err := store.OpenPacked(dir)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	r, err := store.OpenRemote(baseURL, nil)
	if err != nil {
		return nil, err
	}
	return store.SyncDirToRemote(ctx, local, r.Retry())
}

// PackStore migrates a corpus in the older per-file layout into
// segments in place. Idempotent and crash-resumable: each entry is
// removed only after its bytes land in a segment, and a re-run finishes
// whatever a crash left; a packed or empty directory is a no-op.
func PackStore(dir string) (*StorePackReport, error) { return store.Pack(dir) }

// RunStoreBench fills a synthetic corpus and measures write throughput,
// warm-read latency, and gc time.
func RunStoreBench(opts StoreBenchOptions) (*StoreBenchReport, error) {
	return store.RunBench(opts)
}

// ---- Sweep API: declarative parameter grids ----

// Sweep is the declarative description of a parameter grid: a base
// Scenario plus named axes (processor, kind, baseline, mitigation,
// bits, noise, coding, params) whose cross-product expands
// deterministically into cells — the paper's processors × kinds ×
// mitigations tables as one spec. The same spec executes identically
// from Go (RunSweep), the CLI (ichannels sweep run), and the wire
// (POST /v1/sweeps).
type Sweep = scenario.Sweep

// SweepCell is one expanded grid point: the combined normalized
// scenario plus its axis coordinates.
type SweepCell = scenario.Cell

// SweepOptions configures a sweep run (seed, parallelism, streaming
// hook, executor override).
type SweepOptions = sweep.Options

// SweepCellOutcome is one completed cell streamed to
// SweepOptions.OnCell.
type SweepCellOutcome = sweep.CellOutcome

// SweepResult is a completed sweep: compact per-cell summaries plus
// the grouped aggregate table.
type SweepResult = sweep.Result

// RunSweep expands and executes a sweep, streaming cells through the
// engine worker pool with bounded memory and reducing them on the fly.
// For a fixed (sweep, BaseSeed) every per-cell result and the aggregate
// table are byte-identical at any parallelism.
func RunSweep(ctx context.Context, sw Sweep, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, sw, opts)
}

// ExpandSweep materializes a sweep's cells in expansion order without
// running them (each cell's Scenario is normalized and validated).
func ExpandSweep(sw Sweep) ([]SweepCell, error) { return sw.Expand() }

// ParseSweepSpec parses one JSON sweep object, rejecting unknown fields
// and trailing data — the decoder the CLI and HTTP v1 layer share.
func ParseSweepSpec(data []byte) (Sweep, error) { return scenario.ParseSweep(data) }

// SweepSchemaJSON returns the machine-readable Sweep spec schema (the
// payload of GET /v1/sweeps/schema).
func SweepSchemaJSON() []byte { return scenario.SweepSchemaJSON() }

// SweepCellLineJSON is the NDJSON wire form of one streamed sweep cell.
type SweepCellLineJSON = sweep.CellLine

// SweepCellLine converts a streamed cell outcome to the NDJSON line
// form the CLI emits (the HTTP layer adds a `cached` field on top).
func SweepCellLine(o SweepCellOutcome) SweepCellLineJSON { return sweep.LineOf(o) }

// ---- Distributed execution ----

// WorkerPool is the distributed sweep coordinator, set as
// SweepOptions.Runner: it dispatches cells to remote workers over the
// HTTP v1 wire, verifies every response against the store's checksummed
// envelope format (a byzantine or stale worker is rejected and its cell
// redispatched), quarantines failing workers with exponential backoff,
// and falls back to local compute so output bytes never depend on which
// machines were alive. See internal/dist and docs/ARCHITECTURE.md.
type WorkerPool = dist.Pool

// WorkerPoolOptions configures a WorkerPool (HTTP client, retry
// attempts, backoff, local-fallback policy).
type WorkerPoolOptions = dist.Options

// NewWorkerPool builds a coordinator over worker base URLs — what
// `ichannels sweep run -workers URL,URL` constructs.
func NewWorkerPool(workers []string, opts WorkerPoolOptions) (*WorkerPool, error) {
	return dist.New(workers, opts)
}

// ServerOptions configures NewAPIServer: the full serve surface (store
// tier, worker endpoint POST /v1/cells, store sharing, cache and
// concurrency bounds) in one struct.
type ServerOptions = serve.Options

// APIServer is the serve-layer server itself: Handler is its
// http.Handler, Close stops the retention timer, RunRetention forces
// one GC pass.
type APIServer = serve.Server

// NewAPIServer builds the full server — what `ichannels serve` uses so
// shutdown stops the retention loop (-gc-every) cleanly.
func NewAPIServer(opts ServerOptions) *APIServer { return serve.New(opts) }

// ---- Adaptive sweep refinement ----

// A Sweep with a refine block runs adaptively under RunSweep: a coarse
// strided pass first, then only the group_by regions whose metric (BER
// or throughput) actually moves re-expand — the Fig. 14-style noise/BER
// knee found with a fraction of the dense grid's cells. The refined
// cell set, per-cell results and the final aggregate are byte-identical
// at any parallelism and across kill-and-resume.

// SweepPassStats is one executed refinement pass's deterministic
// header (pass number, cell count, budget truncation); streamed to
// SweepOptions.OnPass.
type SweepPassStats = sweep.PassStats

// WriteSweepPassLine writes one refinement pass marker's NDJSON framing
// — emitted before the pass's cell lines by both the CLI's -ndjson mode
// and POST /v1/sweeps.
func WriteSweepPassLine(w io.Writer, p SweepPassStats) error {
	return sweep.WritePassLine(w, p)
}
