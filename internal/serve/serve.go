// Package serve exposes the scenario engine over a versioned HTTP/JSON
// API so a fleet of clients can request arbitrary simulated runs — not
// just the pre-registered figure experiments — without shelling out to
// the CLI:
//
//	GET  /v1/experiments       list registered experiments (id, section, desc)
//	GET  /v1/scenarios/schema  machine-readable Scenario spec schema
//	POST /v1/scenarios         run one scenario (JSON object) or a batch
//	                           (JSON array; the response streams NDJSON,
//	                           one outcome line per scenario, in order)
//	GET  /v1/sweeps/schema     machine-readable Sweep spec schema
//	POST /v1/sweeps            expand and run a parameter grid; the
//	                           response streams one NDJSON line per cell
//	                           followed by an aggregate envelope
//	                           (see internal/sweep)
//
// Errors carry a structured envelope {code, message} (plus a legacy
// "error" field). Mutating routes enforce method and Content-Type
// (application/json); malformed seed query values are rejected with
// HTTP 400.
//
// A paper figure is an experiment-role scenario: POST /v1/scenarios
// with {"role":"experiment","experiment":"fig13","seed":N}.
//
// Results are cached in memory keyed by (scenario hash, seed). Because the
// simulator is deterministic for a fixed seed (see docs/ARCHITECTURE.md)
// a cached result is bit-for-bit the result a fresh run would produce,
// so repeated requests are served without recomputation — and, for a
// single-object request, without re-encoding: the entry keeps its
// result's encoding and the response writes those bytes as stored (see
// response.go). Concurrent requests for the same key are coalesced:
// only the first computes, the rest wait for its result — including
// across items of one batch and across unrelated clients. Runner
// errors are cached too — they are equally deterministic — so a failing
// (scenario, seed) pair does not burn CPU on every retry. The cache is
// bounded (Options.MaxCacheEntries, LRU eviction — hits refresh
// recency, so a sweep session's hot repeated cells outlive one-shot
// grid neighbours) so seed sweeps cannot grow the process without
// limit.
//
// With Options.Store set the cache becomes two-tier: a memory miss
// consults the durable result store (internal/store) before computing,
// and every computed success is persisted, so a restarted server warms
// from disk and eviction never discards work — only the memory copy.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ichannels/internal/dist"
	"ichannels/internal/engine"
	"ichannels/internal/exp"
	"ichannels/internal/scenario"
	"ichannels/internal/soc"
	"ichannels/internal/store"
)

// DefaultMaxCacheEntries bounds the result cache when Options leaves
// MaxCacheEntries zero.
const DefaultMaxCacheEntries = 1024

// MaxBatchScenarios bounds one POST /v1/scenarios array.
const MaxBatchScenarios = 256

// maxBodyBytes bounds one request body.
const maxBodyBytes = 4 << 20

// Error codes of the structured error envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeInvalidScenario  = "invalid_scenario"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeTooLarge         = "payload_too_large"
	CodeRunFailed        = "run_failed"
	CodeNotFound         = "not_found"
	CodeStoreError       = "store_error"
	CodeUnsupported      = "unsupported"
)

// Options configures a Server.
type Options struct {
	// Run overrides the experiment executor of experiment-role
	// scenarios (it becomes scenario.Runner.ExpRun; nil means exp.Run).
	// Injected by tests to observe cache behavior.
	Run func(id string, seed int64) (*exp.Report, error)
	// MaxCacheEntries bounds the result cache; when full, the
	// least-recently-used completed entry is evicted (a cache hit
	// refreshes the entry's recency, so a sweep session's hot repeated
	// cells survive long grids of one-shot neighbours). Zero means
	// DefaultMaxCacheEntries. Negative disables caching — and with it
	// the coalescing of concurrent identical requests, which rides on
	// the published cache entries.
	MaxCacheEntries int
	// MaxConcurrent bounds how many simulations run at once across all
	// requests (coalesced duplicates share one slot). Zero means
	// GOMAXPROCS, negative means unbounded.
	MaxConcurrent int
	// Store, when set, is the durable tier under the in-memory cache:
	// a memory miss consults the store before computing, and every
	// freshly computed success is persisted. A restarted server warms
	// from disk — re-posting a sweep recomputes nothing — and LRU
	// eviction costs only memory, never the corpus. An unreadable
	// entry degrades to a miss; a failed write to a skipped persist.
	Store store.Store
	// Worker additionally exposes the distributed tier's cell endpoint
	// (POST /v1/cells, see internal/dist): a coordinator dispatches
	// sweep cells here and verifies the checksummed envelope responses.
	// Off by default — a plain API server is not a compute worker.
	Worker bool
	// GCEvery, when positive and the store supports retention
	// (store.DirStore's GCWith — the directory store and the replica
	// cache do), runs an age/size GC pass on that interval for the
	// lifetime of the server. GCMaxAge and GCMaxBytes are the pass's
	// GCOptions; both zero still removes corrupt entries and stale
	// temporaries. The retention config and last report are advertised
	// via /v1/stats, and GCMaxBytes also caps uploaded envelopes on the
	// shared store routes.
	GCEvery    time.Duration
	GCMaxAge   time.Duration
	GCMaxBytes int64
	// ShareStore additionally exposes the store's object routes
	// (GET/PUT /v1/store/{key}, GET /v1/store — see store.HTTPBackend):
	// remote processes opening `-store http://this-host` read and write
	// this server's corpus without a shared filesystem. Requires Store;
	// off by default — sharing a corpus is an operator decision.
	ShareStore bool
}

// Server runs scenarios on demand and caches their results.
type Server struct {
	runner     scenario.Runner // scenario executor (ExpRun = Options.Run)
	machines   *soc.Pool       // machine pool the runner recycles SoCs through
	maxCache   int
	sem        chan struct{} // nil = unbounded; else bounds running simulations
	store      store.Store   // nil = memory-only; else the durable tier
	worker     bool          // serve the /v1/cells dispatch endpoint
	shareStore bool          // serve the /v1/store object routes

	// Retention config (see Options.GCEvery); zero values mean off.
	gcEvery    time.Duration
	gcMaxAge   time.Duration
	gcMaxBytes int64
	gcStop     chan struct{}
	closeOnce  sync.Once

	mu          sync.Mutex
	cache       map[cacheKey]*cacheEntry
	lru         list.List // of *cacheEntry, recency order, oldest first
	hits        int64
	misses      int64
	storeHits   int64
	storeMisses int64
	storeErrors int64
	storeTrans  int64 // transient store failures (network-class)
	storePerm   int64 // permanent store failures (corrupt envelopes)
	gcRuns      int64
	lastGC      *store.GCReport
	lastGCErr   string
	lastGCAt    time.Time
}

// cacheKey identifies one deterministic result: the scenario's content
// hash plus the effective seed.
type cacheKey struct {
	Hash string
	Seed int64
}

// cacheEntry coalesces concurrent computations of one key: the entry is
// published under the mutex, the computation runs exactly once, and
// ready is closed when it finishes so any number of waiters (including
// NDJSON batch writers) can block on it. Eviction skips in-flight
// entries (evicting one would let a concurrent identical request start
// a duplicate simulation).
type cacheEntry struct {
	once    sync.Once
	ready   chan struct{}
	result  *scenario.Result
	err     error
	elapsed time.Duration
	// fromStore marks a result fetched from the durable tier instead
	// of computed (set before ready closes; read only after it).
	fromStore bool

	// key and elem place a published entry in the server's recency
	// list; both are guarded by Server.mu.
	key  cacheKey
	elem *list.Element

	// block is the result's indented encoding as a single-object
	// response nests it (see resultBlock), built on first use.
	blockOnce sync.Once
	block     []byte
	blockErr  error
}

// served reports whether the entry was already complete in memory
// (memCached) or filled from the store — the conditions under which a
// response is marked "cached". Call only after the entry is ready.
func (e *cacheEntry) served(memCached bool) bool {
	return memCached || e.fromStore
}

func newCacheEntry() *cacheEntry { return &cacheEntry{ready: make(chan struct{})} }

// done reports whether the computation has finished.
func (e *cacheEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// New builds a Server.
func New(opts Options) *Server {
	maxCache := opts.MaxCacheEntries
	if maxCache == 0 {
		maxCache = DefaultMaxCacheEntries
	}
	var sem chan struct{}
	switch c := opts.MaxConcurrent; {
	case c == 0:
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	case c > 0:
		sem = make(chan struct{}, c)
	}
	machines := soc.NewPool()
	s := &Server{
		runner:     scenario.Runner{ExpRun: opts.Run, Machines: machines},
		machines:   machines,
		maxCache:   maxCache,
		sem:        sem,
		store:      opts.Store,
		worker:     opts.Worker,
		shareStore: opts.ShareStore && opts.Store != nil,
		gcEvery:    opts.GCEvery,
		gcMaxAge:   opts.GCMaxAge,
		gcMaxBytes: opts.GCMaxBytes,
		cache:      map[cacheKey]*cacheEntry{},
	}
	if s.gcEvery > 0 {
		if _, ok := s.store.(retainer); ok {
			s.gcStop = make(chan struct{})
			go s.retentionLoop()
		}
	}
	return s
}

// retainer is the retention surface a store must expose for the timer
// (the directory store and the replica cache satisfy it).
type retainer interface {
	GCWith(opts store.GCOptions) (*store.GCReport, error)
}

// retentionLoop runs GC passes on the configured interval until Close.
func (s *Server) retentionLoop() {
	t := time.NewTicker(s.gcEvery)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.RunRetention()
		}
	}
}

// RunRetention runs one retention pass now (the timer calls it; tests
// and operators may too). It returns the pass's report, or an error
// when the store does not support retention or the pass failed.
func (s *Server) RunRetention() (*store.GCReport, error) {
	ret, ok := s.store.(retainer)
	if !ok {
		return nil, fmt.Errorf("serve: store does not support retention")
	}
	rep, err := ret.GCWith(store.GCOptions{MaxAge: s.gcMaxAge, MaxBytes: s.gcMaxBytes})
	s.mu.Lock()
	s.gcRuns++
	s.lastGCAt = time.Now()
	s.lastGC, s.lastGCErr = rep, ""
	if err != nil {
		s.lastGCErr = err.Error()
	}
	s.mu.Unlock()
	return rep, err
}

// Close stops the retention timer. Safe to call more than once; a
// server without retention needs no Close, but callers may do so
// unconditionally.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.gcStop != nil {
			close(s.gcStop)
		}
	})
	return nil
}

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// v1 routes do their own method checks so 405s carry the
	// structured error envelope.
	mux.HandleFunc("/v1/experiments", s.v1Experiments)
	mux.HandleFunc("/v1/scenarios/schema", s.v1Schema)
	mux.HandleFunc("/v1/scenarios", s.v1Scenarios)
	mux.HandleFunc("/v1/sweeps/schema", s.v1SweepSchema)
	mux.HandleFunc("/v1/sweeps", s.v1Sweeps)
	mux.HandleFunc("/v1/stats", s.v1Stats)
	if s.worker {
		mux.HandleFunc(dist.DispatchPath, s.v1Cells)
	}
	if s.shareStore {
		mux.HandleFunc(store.StorePathPrefix, s.v1StoreIndex)
		mux.HandleFunc(store.StorePathPrefix+"/", s.v1StoreEntry)
	}
	return mux
}

// CacheStats reports cache hits and misses so far (hit = the request
// found a published entry, even if it then waited for the computation).
func (s *Server) CacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// entry returns the cache entry for key, creating (and publishing) it
// if absent. cached reports whether the result was already complete
// when the request arrived — the condition under which the response is
// marked served-from-cache; a coalesced waiter on an in-flight entry
// still pays the compute wall-clock.
//
// Eviction is LRU: a hit moves the entry to the back of the recency
// list, so long sweep sessions re-requesting a hot working set keep it
// resident while one-shot grid cells age out from the front. A hit and
// an eviction are O(1) list operations and do not allocate.
func (s *Server) entry(key cacheKey) (ent *cacheEntry, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, hit := s.cache[key]; hit {
		s.hits++
		s.lru.MoveToBack(ent.elem)
		return ent, ent.done()
	}
	s.misses++
	ent = newCacheEntry()
	if s.maxCache > 0 {
		// In-flight entries are never evicted, so the cap may be exceeded
		// transiently, bounded by MaxConcurrent plus waiters.
		for len(s.cache) >= s.maxCache && s.evictLocked() {
		}
		ent.key = key
		ent.elem = s.lru.PushBack(ent)
		s.cache[key] = ent
	}
	return ent, false
}

// evictLocked drops the least-recently-used completed entry and reports
// whether there was one. It skips in-flight entries.
func (s *Server) evictLocked() bool {
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.done() {
			s.lru.Remove(el)
			delete(s.cache, e.key)
			return true
		}
	}
	return false
}

// compute fills ent for key exactly once and wakes all waiters: fetch
// from the durable tier when it holds the key, run fn (bounded by the
// simulation semaphore) otherwise, persisting fresh successes back.
// Store reads happen outside the semaphore — a disk hit must not queue
// behind running simulations.
func (s *Server) compute(key cacheKey, ent *cacheEntry, fn func() (*scenario.Result, error)) {
	ent.once.Do(func() {
		defer close(ent.ready)
		if s.store != nil {
			t0 := time.Now()
			res, ok, err := s.store.Get(store.Key(key))
			switch {
			case err != nil:
				s.countStoreErr(err) // unreadable entry: recompute
			case ok:
				ent.result, ent.fromStore = res, true
				ent.elapsed = time.Since(t0)
				s.countStore(storeTallyHit)
				return
			default:
				s.countStore(storeTallyMiss)
			}
		}
		if s.sem != nil {
			s.sem <- struct{}{}
			defer func() { <-s.sem }()
		}
		// elapsed_us reports compute (or disk-read) cost only — the
		// semaphore wait above is queueing, not simulation.
		t0 := time.Now()
		ent.result, ent.err = fn()
		ent.elapsed = time.Since(t0)
		if s.store != nil && ent.err == nil {
			if err := s.store.Put(store.Key(key), ent.result); err != nil {
				s.countStoreErr(err)
			}
		}
	})
}

// storeTally classifies one durable-tier event for the counters.
type storeTally int

const (
	storeTallyHit storeTally = iota
	storeTallyMiss
)

// countStore tallies durable-tier activity for StoreStats and the
// /v1/stats endpoint. Both the compute read-through path and the shared
// /v1/store object routes feed it, so the counters describe corpus
// effectiveness across every consumer of this server's store.
func (s *Server) countStore(t storeTally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t {
	case storeTallyHit:
		s.storeHits++
	default:
		s.storeMisses++
	}
}

// countStoreErr tallies one degraded store operation, split by failure
// class: transient (network blip — retrying or recomputing covers it)
// vs permanent (corrupt envelope — the bytes are wrong at the source).
func (s *Server) countStoreErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.storeErrors++
	if store.IsPermanentError(err) {
		s.storePerm++
	} else {
		s.storeTrans++
	}
}

// StoreStats reports durable-tier hits and degraded operations
// (unreadable entries and failed writes) so far. Zeroes when no store
// is configured. See StoreCounters for the full hit/miss/error split.
func (s *Server) StoreStats() (hits, failures int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeHits, s.storeErrors
}

// StoreCounters reports the durable tier's full tally: hits (reads
// served from the corpus), misses (clean absences that led to a
// compute), and errors (unreadable entries and failed writes).
func (s *Server) StoreCounters() (hits, misses, errors int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeHits, s.storeMisses, s.storeErrors
}

// StoreErrorCounters splits the error tally by failure class:
// transient (network-class, degraded and recovered) vs permanent
// (corrupt envelopes — a damaged or byzantine upstream).
func (s *Server) StoreErrorCounters() (transient, permanent int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeTrans, s.storePerm
}

// ---- wire envelopes ----

// errorBody is the structured error envelope. The legacy "error" field
// duplicates Message for PR-1 clients.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Legacy  string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func errBody(code, format string, args ...any) *errorBody {
	msg := fmt.Sprintf(format, args...)
	return &errorBody{Code: code, Message: msg, Legacy: msg}
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errBody(code, format, args...))
}

// parseSeed extracts an optional integer seed query value, rejecting
// malformed or conflicting values instead of silently defaulting.
func parseSeed(r *http.Request) (seed int64, set bool, err error) {
	vals := r.URL.Query()["seed"]
	if len(vals) == 0 {
		return 0, false, nil
	}
	for _, v := range vals[1:] {
		if v != vals[0] {
			return 0, false, fmt.Errorf("conflicting seed values %q and %q", vals[0], v)
		}
	}
	seed, perr := strconv.ParseInt(vals[0], 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("bad seed %q: must be an integer", vals[0])
	}
	return seed, true, nil
}

// requireJSON enforces the Content-Type of mutating routes.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if ct == "" || err != nil || mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
			"Content-Type must be application/json, got %q", ct)
		return false
	}
	return true
}

// methodOnly enforces one HTTP method with a structured 405.
func methodOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"%s %s not allowed; use %s", r.Method, r.URL.Path, method)
		return false
	}
	return true
}

// ---- v1 handlers ----

func (s *Server) v1Experiments(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, exp.Experiments())
}

func (s *Server) v1Schema(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(scenario.SchemaJSON())
}

// scenarioLine is one NDJSON line of a batch response. Exactly one of
// Error and Result is set.
type scenarioLine struct {
	Index     int              `json:"index"`
	Name      string           `json:"name,omitempty"`
	Hash      string           `json:"hash"`
	Seed      int64            `json:"seed"`
	Cached    bool             `json:"cached"`
	ElapsedUS float64          `json:"elapsed_us"`
	Error     *errorBody       `json:"error,omitempty"`
	Result    *scenario.Result `json:"result,omitempty"`
}

// v1Scenarios accepts a single Scenario object or an array of them.
func (s *Server) v1Scenarios(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodPost) {
		return
	}
	if !requireJSON(w, r) {
		return
	}
	querySeed, seedSet, err := parseSeed(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	// Scenario seeds are non-negative (spec rule); a query seed must
	// not smuggle in values no valid spec could reproduce. Zero means
	// "default", exactly like a spec's seed field.
	if seedSet && querySeed < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "seed must be non-negative, got %d", querySeed)
		return
	}
	if seedSet && querySeed == 0 {
		seedSet = false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"request body exceeds %d bytes", maxBodyBytes)
		return
	}
	specs, isArray, err := scenario.ParseSpecs(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding scenarios: %v (see /v1/scenarios/schema)", err)
		return
	}
	if isArray {
		s.runBatch(w, r, specs, querySeed, seedSet)
		return
	}
	n := specs[0].Normalized()
	if err := n.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidScenario, "%v", err)
		return
	}
	seed := n.Seed
	if seed == 0 {
		seed = scenario.DefaultSeed
		if seedSet {
			seed = querySeed
		}
	}
	hash := n.Hash()
	key := cacheKey{Hash: hash, Seed: seed}
	ent, cached := s.entry(key)
	s.compute(key, ent, func() (*scenario.Result, error) {
		return s.runScenarioIsolated(r, n, seed)
	})
	if ent.err != nil {
		writeError(w, http.StatusInternalServerError, CodeRunFailed,
			"%s (seed %d): %v", n.Describe(), seed, ent.err)
		return
	}
	writeScenario(w, n.Name, hash, seed, ent.served(cached),
		float64(ent.elapsed)/float64(time.Microsecond), ent)
}

// runBatch executes a scenario array and streams NDJSON outcomes in
// request order as they complete.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, specs []scenario.Scenario, querySeed int64, seedSet bool) {
	if len(specs) > MaxBatchScenarios {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"batch of %d scenarios exceeds the limit of %d", len(specs), MaxBatchScenarios)
		return
	}
	baseSeed := int64(scenario.DefaultSeed)
	if seedSet {
		baseSeed = querySeed
	}
	// Validate everything up front: a malformed batch fails whole,
	// before any simulation runs.
	type item struct {
		spec   scenario.Scenario
		hash   string
		seed   int64
		ent    *cacheEntry
		cached bool
	}
	items := make([]item, len(specs))
	for i, spec := range specs {
		n := spec.Normalized()
		if err := n.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidScenario, "scenarios[%d]: %v", i, err)
			return
		}
		items[i].spec = n
		items[i].hash = n.Hash()
		items[i].seed = n.Seed
		if items[i].seed == 0 {
			items[i].seed = engine.DeriveScenarioSeed(baseSeed, n)
		}
	}
	// Publish all entries first so duplicates inside the batch coalesce,
	// then compute concurrently (bounded by the simulation semaphore).
	for i := range items {
		items[i].ent, items[i].cached = s.entry(cacheKey{Hash: items[i].hash, Seed: items[i].seed})
	}
	for i := range items {
		it := items[i]
		go s.compute(cacheKey{Hash: it.hash, Seed: it.seed}, it.ent, func() (*scenario.Result, error) {
			return s.runScenarioIsolated(r, it.spec, it.seed)
		})
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range items {
		it := items[i]
		select {
		case <-it.ent.ready:
		case <-r.Context().Done():
			// Client went away; in-flight computations still complete
			// into the cache for the next request.
			return
		}
		line := scenarioLine{
			Index: i, Name: it.spec.Name, Hash: it.hash, Seed: it.seed,
			Cached:    it.ent.served(it.cached),
			ElapsedUS: float64(it.ent.elapsed) / float64(time.Microsecond),
		}
		if it.ent.err != nil {
			line.Error = errBody(CodeRunFailed, "%s (seed %d): %v", it.spec.Describe(), it.seed, it.ent.err)
		} else {
			line.Result = it.ent.result
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// runScenarioIsolated executes one scenario with panic isolation. The
// computation is detached from the request's cancellation (the values
// are kept): entries are shared across requests, so a client that
// disconnects mid-run must not poison the cache with a context error
// that later, healthy clients would then be served. The simulation is
// short and completes into the cache either way — exactly what a
// retrying client wants.
func (s *Server) runScenarioIsolated(r *http.Request, n scenario.Scenario, seed int64) (res *scenario.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("scenario %s panicked: %v", n.Hash(), p)
		}
	}()
	return s.runner.RunSeeded(context.WithoutCancel(r.Context()), n, seed)
}
