package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ichannels/internal/dist"
	"ichannels/internal/engine"
	"ichannels/internal/model"
	"ichannels/internal/scenario"
	"ichannels/internal/serve"
	"ichannels/internal/soc"
	"ichannels/internal/store"
	"ichannels/internal/sweep"
)

// warmupBaseSeed runs the set-up warm-up pass; it is outside the
// reference pool, so no measured run repeats its cells.
const warmupBaseSeed = 1000

// The sweeps store results in the packed layout (store.OpenPacked), the
// layout `store pack` migrates to. The per-file layout is not used: on
// a virtual disk where creating an entry costs more kernel CPU than
// simulating the cell, and that cost drifts with the disk's recent
// write load, it made these workloads measure the host's file system
// rather than the program.

// sweepFixture is one set-up of a sweep workload: the expanded grid,
// the base seeds this run cycles through, and for sweep-warm the store
// its set-up filled.
type sweepFixture struct {
	e      *env
	mode   string // cold, warm or dist
	specs  []parsedSpec
	expand time.Duration
	seeds  []int64
	dir    string
	st     store.DirStore
	runs   int
}

func setupSweep(e *env, mode string) (fixture, error) {
	grid, k := coldGrid, 2
	if mode == "dist" {
		grid, k = sliceGrid, 4
	}
	specs, expand, err := expandGrid(grid)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, mode+"-")
	if err != nil {
		return nil, err
	}
	f := &sweepFixture{e: e, mode: mode, specs: specs, expand: expand, seeds: pickBaseSeeds(e.seed, k), dir: dir}
	switch mode {
	case "warm":
		// Fill the store the measured phase reads back: every cell of
		// every base seed, computed cold and checked against the
		// reference like sweep-cold's output.
		if f.st, err = store.OpenPacked(filepath.Join(dir, "store")); err != nil {
			f.close()
			return nil, err
		}
		for _, b := range f.seeds {
			for _, sp := range f.specs {
				var agg bytes.Buffer
				res, err := sweep.Run(context.Background(), sp.sw, sweep.Options{BaseSeed: b, Parallel: e.nproc, Store: f.st})
				if err == nil {
					err = res.WriteAggregateLine(&agg)
				}
				if err == nil {
					err = e.refs.check(sp.name, b, agg.Bytes())
				}
				if err != nil {
					f.close()
					return nil, fmt.Errorf("filling the store: %w", err)
				}
			}
		}
	default:
		// Warm-up: one pass over the first spec, so lazy
		// initialisation and heap growth happen before timing.
		var runner engine.CellRunner
		if mode == "dist" {
			urls, stop, err := startWorkers(2, nil)
			if err != nil {
				f.close()
				return nil, err
			}
			defer stop()
			pool, err := dist.New(urls, dist.Options{})
			if err != nil {
				f.close()
				return nil, err
			}
			runner = pool
		}
		if _, err := sweep.Run(context.Background(), specs[0].sw, sweep.Options{BaseSeed: warmupBaseSeed, Parallel: e.nproc, Runner: runner}); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *sweepFixture) close() {
	if f.st != nil {
		_ = f.st.Close() // the fixture's scratch store is deleted next
	}
	_ = os.RemoveAll(f.dir) // scratch space under the build directory
}

// sweepTally accumulates one measured phase.
type sweepTally struct {
	phase
	cells            int
	wall, cpu        time.Duration // spent inside sweep runs
	soc              soc.PoolStats
	dist             dist.Stats
	stores           []*tracedStore
	runners          []*tracedRunner
	workerMachines   soc.PoolStats
	workerStatsError error
}

// measure cycles through every (base seed, spec) pair until d has
// passed, whole cycles only so each phase runs the same mix.
func (f *sweepFixture) measure(d time.Duration, tr *tracer) (*phase, error) {
	t := &sweepTally{}
	deadline := time.Now().Add(d)
	// Each cycle runs the same cells; its CPU rate, scaled by a host
	// calibration taken just before it, is one sample.
	var rates, factors []float64
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		factor := calibrate()
		cells, cpu := t.cells, t.cpu
		for _, b := range f.seeds {
			for _, sp := range f.specs {
				if err := f.runOne(sp, b, tr, t); err != nil {
					return nil, err
				}
			}
		}
		rates = append(rates, float64(t.cells-cells)/(t.cpu-cpu).Seconds()*factor)
		factors = append(factors, factor)
	}
	if t.workerStatsError != nil {
		return nil, t.workerStatsError
	}
	ph := &t.phase
	ph.rate = float64(t.cells) / t.wall.Seconds()
	ph.cpuRate = median(rates)
	ph.notes = append(ph.notes,
		fmt.Sprintf("%d cells in %.3f s of sweep wall-clock and %.3f s of process CPU over %d sweep runs in %d cycles, parallel %d", t.cells, t.wall.Seconds(), t.cpu.Seconds(), f.runs, len(rates), f.e.nproc),
		fmt.Sprintf("unscaled %.6g cells per CPU s; host-speed factor median %.4f", float64(t.cells)/t.cpu.Seconds(), median(factors)))
	if tr != nil {
		f.layers(tr, t)
	}
	return ph, nil
}

// runOne runs one sweep the way `sweep run` does and checks its
// aggregate bytes.
func (f *sweepFixture) runOne(sp parsedSpec, baseSeed int64, tr *tracer, t *sweepTally) error {
	f.runs++
	runID := fmt.Sprintf("%d/", f.runs)
	pool := soc.NewPool()
	opts := sweep.Options{BaseSeed: baseSeed, Parallel: f.e.nproc, Machines: pool}
	wrap := func(s store.Store) store.Store { return s }
	if tr != nil {
		wrap = func(s store.Store) store.Store {
			ts := &tracedStore{inner: s, tr: tr, run: runID}
			t.stores = append(t.stores, ts)
			return ts
		}
	}
	var distPool *dist.Pool
	switch f.mode {
	case "warm":
		opts.Store = wrap(f.st)
	case "dist":
		urls, stop, err := startWorkers(2, tr)
		if err != nil {
			return err
		}
		defer func() {
			ms, err := stop()
			t.workerMachines.Constructed += ms.Constructed
			t.workerMachines.Reused += ms.Reused
			if err != nil && t.workerStatsError == nil {
				t.workerStatsError = err
			}
		}()
		transport := &http.Transport{MaxIdleConnsPerHost: f.e.nproc}
		client := &http.Client{Transport: transport}
		if tr != nil {
			client.Transport = &tracedTransport{inner: transport, tr: tr, run: runID}
		}
		if distPool, err = dist.New(urls, dist.Options{Client: client}); err != nil {
			return err
		}
		opts.Runner = distPool
		defer client.CloseIdleConnections()
	}
	var runner *tracedRunner
	if tr != nil {
		if distPool != nil {
			runner = &tracedRunner{name: "dist.dispatch", inner: distPool, tr: tr, run: runID}
		} else {
			runner = &tracedRunner{name: "scenario.run", inner: localRunner{scenario.Runner{Machines: pool}}, tr: tr, run: runID}
		}
		t.runners = append(t.runners, runner)
		opts.Runner = runner
	}
	root := tr.add(span{Name: "sweep.run", Start: tr.now(), ID: int64(f.runs)})
	opts.OnCell = func(o sweep.CellOutcome) error {
		ms := float64(o.Elapsed) / float64(time.Millisecond)
		if o.Cell.Scenario.Bits <= lightBits {
			t.light = append(t.light, ms)
		} else {
			t.heavy = append(t.heavy, ms)
		}
		if tr != nil {
			end := tr.now()
			tr.addChild(span{Name: "engine.cell", Start: end - int64(o.Elapsed), End: end, ID: tr.id(runID + cellKey(o.Hash, o.Seed))}, root)
		}
		return nil
	}

	// Only the sweep run itself is timed: starting and stopping workers
	// and deleting the cold store are the benchmark's scaffolding.
	t0, cpu0 := time.Now(), cpuTime()
	if f.mode == "cold" {
		dir := filepath.Join(f.dir, fmt.Sprintf("cold-%d", f.runs))
		st, err := store.OpenPacked(dir)
		if err != nil {
			return err
		}
		opts.Store = wrap(st)
		defer func() {
			_ = st.Close()
			// Deleted before the kernel writes it back, the store
			// costs the disk nothing, so runs do not slow each other.
			_ = os.RemoveAll(dir)
		}()
	}
	res, err := sweep.Run(context.Background(), sp.sw, opts)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	tr.setEnd(root, tr.now())
	if err != nil {
		return fmt.Errorf("sweep %s base seed %d: %w", sp.name, baseSeed, err)
	}
	t.cells += len(res.Cells)
	t.wall += wall
	t.cpu += cpu
	t.attempted += len(res.Cells)
	bad := res.Failed
	var agg bytes.Buffer
	if err := res.WriteAggregateLine(&agg); err != nil {
		return err
	}
	if err := f.e.refs.check(sp.name, baseSeed, agg.Bytes()); err != nil {
		bad = len(res.Cells)
		t.problem(err.Error())
	} else if res.Failed > 0 {
		t.problem(fmt.Sprintf("%s base seed %d: %d cells failed", sp.name, baseSeed, res.Failed))
	}
	if f.mode == "warm" && res.Cached != len(res.Cells) && bad == 0 {
		bad = len(res.Cells) - res.Cached
		t.problem(fmt.Sprintf("%s base seed %d: %d of %d cells missed the filled store", sp.name, baseSeed, bad, len(res.Cells)))
	}
	t.failed += bad
	ps := pool.Stats()
	t.soc.Constructed += ps.Constructed
	t.soc.Reused += ps.Reused
	if distPool != nil {
		ds := distPool.Stats()
		t.dist.Dispatched += ds.Dispatched
		t.dist.Redispatched += ds.Redispatched
		t.dist.Corrupt += ds.Corrupt
		t.dist.LocalFallback += ds.LocalFallback
	}
	return nil
}

// layers fills the traced phase's per-layer figures.
func (f *sweepFixture) layers(tr *tracer, t *sweepTally) {
	tr.anchor("engine.cell")
	tr.link(map[string]string{
		"store.get": "engine.cell", "store.put": "engine.cell",
		"scenario.run": "engine.cell", "dist.dispatch": "engine.cell",
		"dist.http": "dist.dispatch", "serve.handler": "dist.http",
	})
	l := newLedger(fmt.Sprintf("sweep wall-clock × %d slots", f.e.nproc), t.wall.Seconds()*float64(f.e.nproc), tr.spans, selfTimes(tr.spans), "sweep.run", false)
	t.ledger = &l
	lm := spanLayers(tr.spans, &t.phase)
	lm["engine.overhead_us_per_cell"] = 1e6 * (l.Unattributed + l.Parts["engine.cell"]) / float64(t.cells)
	lm["sweep.expand_ms"] = float64(f.expand) / float64(time.Millisecond)
	var hits, misses, errs, simUS, hostNS int64
	for _, s := range t.stores {
		hits, misses, errs = hits+s.hits.Load(), misses+s.misses.Load(), errs+s.errors.Load()
	}
	for _, r := range t.runners {
		if r.name == "scenario.run" {
			simUS, hostNS = simUS+r.simUS.Load(), hostNS+r.hostNS.Load()
		}
	}
	lm["store.hits"], lm["store.misses"], lm["store.errors"] = float64(hits), float64(misses), float64(errs)
	if hostNS > 0 {
		lm["scenario.sim_us_per_host_ms"] = float64(simUS) / (float64(hostNS) / 1e6)
	}
	lm["soc.built"], lm["soc.reused"] = float64(t.soc.Constructed), float64(t.soc.Reused)
	if f.mode == "dist" {
		lm["soc.built"], lm["soc.reused"] = float64(t.workerMachines.Constructed), float64(t.workerMachines.Reused)
	}
	lm["dist.redispatched"], lm["dist.corrupt"], lm["dist.local"] = float64(t.dist.Redispatched), float64(t.dist.Corrupt), float64(t.dist.LocalFallback)
	var cells []scenario.Scenario
	for _, sp := range f.specs {
		for _, c := range sp.cells {
			cells = append(cells, c.Scenario)
		}
	}
	lm["scenario.hash_us"] = hashProbe(cells)
	lm["soc.build_us"], lm["soc.reset_us"] = socProbe(f.e.seed)
	t.layers = lm
}

// hashProbe times the per-cell spec work the engine's dispatcher does
// — Normalized, Validate and Hash — and returns the median µs.
func hashProbe(specs []scenario.Scenario) float64 {
	us := make([]float64, 0, len(specs))
	for _, s := range specs {
		t0 := time.Now()
		n := s.Normalized()
		if n.Validate() == nil {
			_ = n.Hash()
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// socProbe times building a machine (soc.New) and recycling a released
// one (soc.Pool.Acquire → Reset) for each processor in the grid, and
// returns the medians in µs.
func socProbe(seed int64) (buildUS, resetUS float64) {
	var build, reset []float64
	for _, name := range gridProcs {
		proc, err := model.ByName(name)
		if err != nil {
			continue
		}
		pool := soc.NewPool()
		for i := int64(0); i < 5; i++ {
			opts := soc.Options{Processor: proc, Cores: 2, Seed: seed + i}
			t0 := time.Now()
			m, err := soc.New(opts)
			if err != nil {
				continue
			}
			build = append(build, float64(time.Since(t0).Nanoseconds())/1e3)
			pool.Release(m)
			opts.Seed += 100
			t0 = time.Now()
			if m, err = pool.Acquire(opts); err == nil {
				reset = append(reset, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	return median(build), median(reset)
}

// startWorkers starts n in-process `serve -worker` handlers on loopback
// listeners. stop shuts them down, waits for them, and returns their
// machine-pool counters.
func startWorkers(n int, tr *tracer) (urls []string, stop func() (soc.PoolStats, error), err error) {
	var servers []*http.Server
	var handlers []http.Handler
	var apis []*serve.Server
	done := make(chan struct{}, n)
	stop = func() (soc.PoolStats, error) {
		var total soc.PoolStats
		var firstErr error
		for i, s := range servers {
			_ = s.Close() // in-flight dispatches have all completed
			<-done
			st, err := fetchServeStats(handlers[i])
			if err != nil && firstErr == nil {
				firstErr = err
			}
			total.Constructed += st.Machines.Constructed
			total.Reused += st.Machines.Reused
			_ = apis[i].Close()
		}
		return total, firstErr
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_, _ = stop()
			return nil, nil, err
		}
		api := serve.New(serve.Options{Worker: true})
		h := api.Handler()
		var handler http.Handler = h
		if tr != nil {
			handler = tracedHandler(h, tr)
		}
		srv := &http.Server{Handler: handler}
		servers, handlers, apis = append(servers, srv), append(handlers, h), append(apis, api)
		go func() {
			_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
			done <- struct{}{}
		}()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return urls, stop, nil
}
