// Command perfbench is the repository's benchmark. It runs one named
// workload through the entry points the CLI and the server use —
// sweep.Run, serve.New(...).Handler() behind a loopback listener, and
// dist.New over in-process `serve -worker` handlers — checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run and its time ledger). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// which layer metric is expected to move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ichannels/internal/sweep"
)

// env is what every workload's set-up gets.
type env struct {
	work  string // scratch directory, removed when the run ends
	seed  int64
	nproc int
	refs  references
}

// fixture is one set-up of a workload, ready to measure.
type fixture interface {
	// measure runs the workload for about d. A non-nil tracer turns
	// the per-layer spans on.
	measure(d time.Duration, tr *tracer) (*phase, error)
	close()
}

var workloads = map[string]func(*env) (fixture, error){
	"sweep-cold": func(e *env) (fixture, error) { return setupSweep(e, "cold") },
	"sweep-warm": func(e *env) (fixture, error) { return setupSweep(e, "warm") },
	"sweep-dist": func(e *env) (fixture, error) { return setupSweep(e, "dist") },
	"serve-open": setupServe,
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// phase is one measured phase of a workload.
type phase struct {
	attempted, failed int
	problems          []string
	// rate is the wall-clock throughput: completed cells per second
	// of sweep wall-clock, or for serve-open the highest offered rate
	// that met the latency limit (max_ok_rps).
	rate float64
	// cpuRate is cells_per_cpu_s: cells (sweeps) or requests of the
	// fixed-rate stages (serve-open) per second of process CPU time,
	// scaled by the host-speed factor for the sweeps.
	cpuRate float64
	// light and heavy are latency samples in ms: per-cell slot times of
	// light and heavy cells for the sweeps, request latency from due
	// time at the light and heavy rates for serve-open.
	light, heavy []float64
	notes        []string
	layers       map[string]float64
	pcts         []pctNote
	ledger       *ledger
}

func (p *phase) problem(s string) {
	if len(p.problems) < 10 {
		p.problems = append(p.problems, s)
	}
}

// pctNote records how a published percentile was obtained.
type pctNote struct {
	name string
	p    pct
	want float64
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics. Their times are process CPU time,
// scaled by the host-speed factor (calib.go) where that tracks the
// work: on a virtual machine whose host steals a varying share of the
// CPU, wall-clock figures drift by tens of percent between runs of the
// same code, these stay within a few percent. The wall-clock figures
// are still measured and printed, ungated, above the JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cells_per_cpu_s", "1/s"},
}

var perLayer = []metricDef{
	{"scenario.run_ms.p50", "ms"},
	{"scenario.run_ms.p99", "ms"},
	{"scenario.run_ms.thread", "ms"},
	{"scenario.run_ms.smt", "ms"},
	{"scenario.run_ms.cores", "ms"},
	{"scenario.run_ms.retire", "ms"},
	{"scenario.run_ms.clockmod", "ms"},
	{"scenario.run_ms.mitigation-eval", "ms"},
	{"scenario.busy_s", "s"},
	{"scenario.sim_us_per_host_ms", "us/ms"},
	{"scenario.hash_us", "us"},
	{"soc.build_us", "us"},
	{"soc.reset_us", "us"},
	{"soc.built", "count"},
	{"soc.reused", "count"},
	{"store.get_us.p50", "us"},
	{"store.get_us.p99", "us"},
	{"store.put_us.p50", "us"},
	{"store.put_us.p99", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.errors", "count"},
	{"engine.cell_us.p50", "us"},
	{"engine.overhead_us_per_cell", "us"},
	{"sweep.expand_ms", "ms"},
	{"serve.handler_us.hit.p50", "us"},
	{"serve.handler_us.hit.p99", "us"},
	{"serve.handler_us.miss.p50", "us"},
	{"serve.handler_us.miss.p99", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.net_us.p50", "us"},
	{"dist.dispatch_ms.p50", "ms"},
	{"dist.dispatch_ms.p99", "ms"},
	{"dist.redispatched", "count"},
	{"dist.corrupt", "count"},
	{"dist.local", "count"},
	{"loadgen.late_ms.p99", "ms"},
	{"ledger.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: sweep-cold, sweep-warm, sweep-dist or serve-open")
	seed := flags.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flags.Int("seconds", 10, "length of the measured phase")
	trace := flags.Int("trace", 0, "1 runs the traced phase and reports the per-layer metrics")
	record := flags.Bool("record", false, "record the reference digests of every base seed into references.json and exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !*record && (!ok || *seconds < 1 || *trace < 0 || *trace > 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload sweep-cold|sweep-warm|sweep-dist|serve-open, -seconds ≥ 1 and -trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	refsPath := filepath.Join(root, "perfbench", "references.json")
	nproc := runtime.GOMAXPROCS(0)
	if *record {
		if err := recordReferences(refsPath, nproc); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	refs, err := loadReferences(refsPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work) // scratch only
	e := &env{work: work, seed: *seed, nproc: nproc, refs: refs}
	st := stamp(root)

	// Set up several times and keep the last set-up: setup_s is the
	// median, so work moved out of the timed phase shows.
	calibrate() // the first pass runs on cold caches
	var f fixture
	var setups, setupCPU, setupWall []float64
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		factor := calibrate()
		t0, cpu0 := time.Now(), cpuTime()
		if f, err = setup(e); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		setups = append(setups, setupCPU[i]/factor)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer f.close()

	d := time.Duration(*seconds) * time.Second
	var ph *phase
	var tr *tracer
	if *trace == 0 {
		ph, err = f.measure(d, nil)
	} else {
		// Untraced, traced, untraced: the traced half's CPU per unit of
		// work against the untraced quarters' on either side (which
		// cancels drift within the run) is the tracing overhead. Only
		// the traced half's spans and figures are reported.
		var before, after *phase
		if before, err = f.measure(d/4, nil); err == nil {
			tr = newTracer()
			if ph, err = f.measure(d/2, tr); err == nil {
				if after, err = f.measure(d/4, nil); err == nil {
					plain := 2 / (1/before.cpuRate + 1/after.cpuRate)
					ph.layers["trace.overhead_frac"] = plain/ph.cpuRate - 1
					ph.attempted += before.attempted + after.attempted
					ph.failed += before.failed + after.failed
					ph.problems = append(append(before.problems, ph.problems...), after.problems...)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rss := peakRSSMB()

	out := output{Attempted: ph.attempted, Failed: ph.failed, Correct: ph.failed == 0 && ph.attempted > 0, Metrics: map[string]metric{}}
	w := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	w("# perfbench %s seed=%d seconds=%d trace=%d", *name, *seed, *seconds, *trace)
	w("# stamp: %s", st)
	w("# setup scaled CPU s: %s; unscaled CPU s: %s; wall s: %s", floats(setups), floats(setupCPU), floats(setupWall))
	for _, n := range ph.notes {
		w("# %s", n)
	}
	// Wall-clock figures, printed but not gated (see endToEnd).
	rateName := "cells_per_s"
	if *name == "serve-open" {
		rateName = "max_ok_rps"
	}
	w("# wall-clock, not gated: %s %.6g 1/s", rateName, ph.rate)
	for _, p := range []pctNote{
		{"p50_ms.light", percentile(ph.light, 0.5), 0.5}, {"p99_ms.light", percentile(ph.light, 0.99), 0.99},
		{"p50_ms.heavy", percentile(ph.heavy, 0.5), 0.5}, {"p99_ms.heavy", percentile(ph.heavy, 0.99), 0.99},
	} {
		w("# wall-clock, not gated: %s %.6g ms (%s)", p.name, finite(p.p.Value), p.p.label(p.want))
	}
	if *trace == 0 {
		vals := map[string]float64{"setup_s": median(setups), "peak_rss_mb": rss, "cells_per_cpu_s": ph.cpuRate}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{Value: finite(vals[m.name]), Unit: m.unit}
		}
	} else {
		if ph.ledger != nil && ph.ledger.Total > 0 {
			ph.layers["ledger.unattributed_frac"] = ph.ledger.Unattributed / ph.ledger.Total
			for _, l := range ph.ledger.lines() {
				w("# %s", l)
			}
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{Value: finite(ph.layers[m.name]), Unit: m.unit}
		}
		tracePath := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		doc, err := json.Marshal(map[string]any{"stamp": st, "workload": *name, "seed": *seed, "ledger": ph.ledger, "metrics": out.Metrics, "spans": tr.spans})
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(tracePath), 0o755); err == nil {
				err = os.WriteFile(tracePath, doc, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing the trace:", err)
			return 1
		}
		w("# spans written to %s", tracePath)
	}
	notes := map[string]string{}
	for _, p := range ph.pcts {
		notes[p.name] = " (" + p.p.label(p.want) + ")"
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		w("%-34s %14.6g %s%s", n, m.Value, m.Unit, notes[n])
	}
	w("%-34s %14.6g ratio (%d of %d failed, refused or wrong)", "failed_frac", float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	for _, p := range ph.problems {
		w("# FAILED: %s", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// finite keeps a failed request's infinite latency encodable.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// stamp identifies the host and the code measured: the VCS revision
// when the build has one, else a digest of the Go sources.
func stamp(root string) string {
	rev := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	if rev == "" {
		rev = "source:" + sourceDigest(root)
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) string {
	var all []byte
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				all = append(all, rel...)
				all = append(all, data...)
			}
		}
		return nil
	})
	return digest(all)[:12]
}

// recordReferences runs every grid spec at every pool base seed and
// writes the aggregate digests: the reference the measured runs are
// checked against.
func recordReferences(path string, nproc int) error {
	refs := references{}
	for _, grid := range [][]gridSpec{coldGrid, sliceGrid} {
		specs, _, err := expandGrid(grid)
		if err != nil {
			return err
		}
		for _, sp := range specs {
			refs[sp.name] = map[string]string{}
			for b := int64(1); b <= baseSeedPool; b++ {
				res, err := sweep.Run(context.Background(), sp.sw, sweep.Options{BaseSeed: b, Parallel: nproc})
				if err != nil {
					return err
				}
				for _, c := range res.Cells {
					if c.Error != "" {
						return fmt.Errorf("%s base seed %d: cell %d failed: %s", sp.name, b, c.Index, c.Error)
					}
				}
				var agg strings.Builder
				if err := res.WriteAggregateLine(&agg); err != nil {
					return err
				}
				refs[sp.name][fmt.Sprint(b)] = digest([]byte(agg.String()))
			}
		}
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
