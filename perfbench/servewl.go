package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ichannels/internal/scenario"
	"ichannels/internal/serve"
	"ichannels/internal/soc"
)

// serve-open traffic. The offered rates are fixed, so two commits see
// the same load. Light and heavy are about 20% and 45% of the max_ok_rps
// the seed commit reached on a quiet 2-vCPU host (about 10k req/s), so
// they stay below capacity when the host is busy; the ramp climbs from
// light to well past it.
const (
	lightRPS   = 2000.0
	heavyRPS   = 4500.0
	rampTopRPS = 16000.0
	// p99LimitMS is the latency limit max_ok_rps is held to, judged
	// over sliding windows of rampWindow requests.
	p99LimitMS = 10.0
	rampWindow = 1000
	rampStep   = 50
	// maxBacklog stops the ramp once this many requests wait for a
	// connection: the backlog is growing and the limit long missed.
	maxBacklog = 2000
	hotSetSize = 256
	// coldShare of requests carry a never-seen seed and must simulate.
	coldShare = 0.03
	// senders is the number of connections load goes out on.
	senders = 2
	// sampleEvery picks about one response in this many for the
	// in-process re-run check (capped at maxSamples).
	sampleEvery = 64
	maxSamples  = 200
)

// Share of the measured phase each stage of the schedule takes.
var stageShares = [3]float64{0.3, 0.3, 0.4}

const (
	stageLight = iota
	stageHeavy
	stageRamp
)

// request is one POST /v1/scenarios body with the normalized spec it
// carries, kept to re-run the response in-process.
type request struct {
	body []byte
	spec scenario.Scenario
}

// arrival is one scheduled request: due is its offset from the phase
// start.
type arrival struct {
	due   time.Duration
	stage int
	req   int
}

// schedule draws Poisson arrivals for the three stages: constant light
// and heavy rates, then a rate climbing linearly from light to
// rampTopRPS. The same seed and duration give the same schedule.
func schedule(rng *rand.Rand, d time.Duration) []arrival {
	var out []arrival
	base := 0.0
	for stage, share := range stageShares {
		length := d.Seconds() * share
		r0, r1 := lightRPS, lightRPS
		switch stage {
		case stageHeavy:
			r0, r1 = heavyRPS, heavyRPS
		case stageRamp:
			r1 = rampTopRPS
		}
		// Unit-rate Poisson points in Λ-space mapped through the
		// inverse of Λ(t) = r0·t + (r1−r0)·t²/(2·length).
		a := (r1 - r0) / length
		total := r0*length + a*length*length/2
		for u := rng.ExpFloat64(); u < total; u += rng.ExpFloat64() {
			t := u / r0
			if a > 0 {
				t = (-r0 + math.Sqrt(r0*r0+2*a*u)) / a
			}
			out = append(out, arrival{due: time.Duration((base + t) * float64(time.Second)), stage: stage})
		}
		base += length
	}
	return out
}

// rampRate is the offered rate at offset t into a ramp of the given
// length.
func rampRate(t, length time.Duration) float64 {
	return lightRPS + (rampTopRPS-lightRPS)*t.Seconds()/length.Seconds()
}

// result is what the generator records per request: times are offsets
// from the phase start.
type result struct {
	due, enq, sent, done time.Duration
	ok                   bool
	body                 []byte // kept for sampled requests only
}

// latency is the request's time from when it was due to its response.
func (r result) latency() time.Duration { return r.done - r.due }

type serveFixture struct {
	e       *env
	api     *serve.Server
	srv     *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	tr      atomic.Pointer[tracer]
	hot     []request
	rng     *rand.Rand
	coldSeq int64
	phases  int
}

// gridProcs and gridKinds span the serve traffic like the sweep grid.
var (
	gridProcs = []string{"Haswell", "Coffee Lake", "Cannon Lake", "Skylake-SP"}
	gridKinds = []string{"thread", "smt", "cores", "retire", "clockmod"}
)

// randomSpec draws a valid channel scenario with the given seed.
func randomSpec(rng *rand.Rand, bits []int, seed int64) scenario.Scenario {
	for {
		s := scenario.Scenario{
			Role: "channel", Processor: gridProcs[rng.Intn(len(gridProcs))],
			Kind: gridKinds[rng.Intn(len(gridKinds))], Bits: bits[rng.Intn(len(bits))], Seed: seed,
		}
		if rng.Intn(2) == 1 && s.Kind != "retire" { // retire's calibration fails under interrupt noise
			s.Noise = &scenario.Noise{InterruptsPerSec: 2000, CtxSwitchesPerSec: 500, TSCJitterCycles: 40}
		}
		if s.Normalized().Validate() == nil {
			return s
		}
	}
}

func newRequest(s scenario.Scenario) (request, error) {
	body, err := json.Marshal(s)
	return request{body: body, spec: s.Normalized()}, err
}

func setupServe(e *env) (fixture, error) {
	f := &serveFixture{e: e, rng: rand.New(rand.NewSource(e.seed)), served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.api = serve.New(serve.Options{})
	h := f.api.Handler()
	// The traced phase switches the handler wrapper on; the untraced
	// one pays only the pointer load.
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr := f.tr.Load(); tr != nil {
			tracedHandler(h, tr).ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})}
	go func() {
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
		close(f.served)
	}()
	f.url = "http://" + ln.Addr().String() + "/v1/scenarios"
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}

	seen := map[string]bool{}
	for len(f.hot) < hotSetSize {
		s := randomSpec(f.rng, []int{16, 32, 64, 128}, 1+f.rng.Int63n(1<<20))
		r, err := newRequest(s)
		if err != nil {
			f.close()
			return nil, err
		}
		if key := string(r.body); !seen[key] {
			seen[key] = true
			f.hot = append(f.hot, r)
		}
	}
	// Warm the cache with every hot request.
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < hotSetSize; i += senders {
				if _, ok := f.post(f.hot[i].body, 0, false); !ok {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		f.close()
		return nil, fmt.Errorf("warming the server: %d requests failed", n)
	}
	return f, nil
}

func (f *serveFixture) close() {
	f.client.CloseIdleConnections()
	_ = f.srv.Close() // no requests are in flight between phases
	<-f.served
	_ = f.api.Close()
}

// post sends one request and reads the whole response; it returns the
// body when keep is set.
func (f *serveFixture) post(body []byte, id int64, keep bool) ([]byte, bool) {
	req, err := http.NewRequest(http.MethodPost, f.url, bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var out []byte
	if keep {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return out, err == nil && resp.StatusCode == http.StatusOK
}

// openLoop offers the arrivals on schedule over senders connections,
// whatever the responses' pace, and records each request's times from
// the returned start. It stops offering ramp arrivals once more than
// maxBacklog requests are waiting, and calls atRamp when the first ramp
// arrival is due. It returns the results of the requests it sent.
func openLoop(arrivals []arrival, send func(i int) ([]byte, bool), atRamp func()) ([]result, time.Time) {
	results := make([]result, len(arrivals))
	queue := make(chan int, len(arrivals)) // sized to every send: the dispatcher never blocks
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &results[i]
				r.sent = time.Since(start)
				r.body, r.ok = send(i)
				r.done = time.Since(start)
				inflight.Add(-1)
			}
		}()
	}
	dispatched := len(arrivals)
	ramping := false
	func() {
		precise()
		defer runtime.UnlockOSThread()
		defer close(queue)
		for i, a := range arrivals {
			if a.stage == stageRamp {
				if !ramping {
					ramping = true
					atRamp()
				}
				if inflight.Load() > maxBacklog {
					dispatched = i
					return
				}
			}
			sleepUntil(start.Add(a.due))
			results[i].due = a.due
			results[i].enq = time.Since(start)
			inflight.Add(1)
			queue <- i
		}
	}()
	wg.Wait()
	return results[:dispatched], start
}

// measure offers the seeded open-loop schedule for d and checks a
// sample of the responses by re-running them in-process.
func (f *serveFixture) measure(d time.Duration, tr *tracer) (*phase, error) {
	arrivals := schedule(f.rng, d)
	reqs := make([]request, 0, len(arrivals)/16)
	sampled := make([]bool, len(arrivals))
	nSampled := 0
	for i := range arrivals {
		if f.rng.Float64() < coldShare {
			f.coldSeq++
			// Seeds above any hot seed and unique within the process:
			// every cold request is a cache miss.
			r, err := newRequest(randomSpec(f.rng, []int{16, 32}, 1<<40+f.coldSeq))
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
			arrivals[i].req = -len(reqs) // negative: index into reqs
		} else {
			arrivals[i].req = f.rng.Intn(hotSetSize)
		}
		if nSampled < maxSamples && f.rng.Intn(sampleEvery) == 0 {
			sampled[i] = true
			nSampled++
		}
	}
	reqOf := func(a arrival) request {
		if a.req < 0 {
			return reqs[-a.req-1]
		}
		return f.hot[a.req]
	}
	f.phases++
	ids := make([]int64, len(arrivals))
	if tr != nil {
		for i := range ids {
			ids[i] = tr.id(fmt.Sprintf("req/%d/%d", f.phases, i))
		}
		f.tr.Store(tr)
		defer f.tr.Store(nil)
	}

	// CPU per request is taken over the fixed-rate stages, up to the
	// moment the ramp starts. It is not scaled by the host calibration:
	// this CPU goes mostly to the kernel's loopback networking and to
	// scheduler wake-ups, which the memory-bound calibration load does
	// not track (scaling made the figure noisier, not steadier).
	cpu0 := cpuTime()
	var fixedCPU time.Duration
	offered := len(arrivals)
	results, start := openLoop(arrivals, func(i int) ([]byte, bool) {
		return f.post(reqOf(arrivals[i]).body, ids[i], sampled[i])
	}, func() { fixedCPU = cpuTime() - cpu0 })
	dispatched := len(results)
	arrivals = arrivals[:dispatched]

	ph := &phase{}
	var light, heavy, late []float64
	rampStart := time.Duration(d.Seconds() * (stageShares[0] + stageShares[1]) * float64(time.Second))
	rampLen := d - rampStart
	var ramp []float64
	var rampDue []time.Duration
	for i, r := range results {
		ph.attempted++
		ms := float64(r.latency()) / float64(time.Millisecond)
		if !r.ok {
			ph.failed++
			ph.problem(fmt.Sprintf("request %d: failed or refused", i))
			ms = math.Inf(1) // a failed request misses every latency limit
		}
		switch arrivals[i].stage {
		case stageLight:
			light = append(light, ms)
			late = append(late, float64(r.enq-r.due)/float64(time.Millisecond))
		case stageHeavy:
			heavy = append(heavy, ms)
			late = append(late, float64(r.enq-r.due)/float64(time.Millisecond))
		case stageRamp:
			ramp = append(ramp, ms)
			rampDue = append(rampDue, r.due-rampStart)
		}
	}
	// max_ok_rps: the offered rate at the middle of the last ramp
	// window whose p99 met the limit. Past capacity the backlog grows
	// and every later window misses, so a transient miss earlier in the
	// ramp does not cut the figure short.
	lastOK := -1
	for lo := 0; lo+rampWindow <= len(ramp); lo += rampStep {
		w := append([]float64(nil), ramp[lo:lo+rampWindow]...)
		if percentile(w, 0.99).Value <= p99LimitMS {
			lastOK = lo
		}
	}
	ph.light, ph.heavy = light, heavy
	ph.cpuRate = float64(len(light)+len(heavy)) / fixedCPU.Seconds()
	if lastOK >= 0 {
		ph.rate = rampRate(rampDue[lastOK+rampWindow/2], rampLen)
	}
	ph.notes = append(ph.notes,
		fmt.Sprintf("sent %d requests: %d light at %.0f/s, %d heavy at %.0f/s, %d of %d on the ramp %.0f→%.0f/s; %d cold", dispatched, len(light), lightRPS, len(heavy), heavyRPS, len(ramp), offered-len(light)-len(heavy), lightRPS, rampTopRPS, len(reqs)),
		fmt.Sprintf("max_ok_rps: offered rate mid-way through the last window of %d ramp requests with p99 within %.0f ms", rampWindow, p99LimitMS))
	if dispatched == offered && lastOK+rampWindow+rampStep > len(ramp) {
		ph.notes = append(ph.notes, "max_ok_rps reached the top of the ramp: the figure is a lower bound")
	}

	// Re-run the sampled responses in-process and compare result bytes.
	runner := scenario.Runner{Machines: soc.NewPool()}
	var runs []rerun
	for i, r := range results {
		if !sampled[i] || !r.ok {
			continue
		}
		run, err := checkResponse(runner, reqOf(arrivals[i]), r.body)
		if err != nil {
			ph.failed++
			ph.problem(fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		runs = append(runs, run)
	}
	ph.notes = append(ph.notes, fmt.Sprintf("re-ran %d sampled responses in-process", len(runs)))
	if tr != nil {
		base := int64(start.Sub(tr.t0))
		if err := f.layers(tr, ph, base, arrivals, results, ids, late, runs); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// rerun is one in-process re-run of a sampled request: the same
// scenario.Runner path the server's misses take.
type rerun struct {
	kind  string
	ms    float64
	simUS float64
}

// checkResponse re-runs a request in-process and compares the result
// bytes with those the server returned.
func checkResponse(runner scenario.Runner, req request, body []byte) (rerun, error) {
	var env struct {
		Hash   string          `json:"hash"`
		Seed   int64           `json:"seed"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return rerun{}, fmt.Errorf("decoding response: %w", err)
	}
	if env.Hash != req.spec.Hash() || env.Seed != req.spec.Seed {
		return rerun{}, fmt.Errorf("response identity %s/%d, want %s/%d", env.Hash, env.Seed, req.spec.Hash(), req.spec.Seed)
	}
	t0 := time.Now()
	res, err := runner.RunSeeded(context.Background(), req.spec, req.spec.Seed)
	run := rerun{kind: kindLabel(req.spec), ms: float64(time.Since(t0)) / float64(time.Millisecond)}
	if err != nil {
		return run, fmt.Errorf("in-process re-run: %w", err)
	}
	run.simUS = res.ElapsedSimUS
	want, err := json.Marshal(res)
	if err != nil {
		return run, err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, env.Result); err != nil {
		return run, fmt.Errorf("compacting response result: %w", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return run, fmt.Errorf("result bytes differ from the in-process run (%d vs %d bytes)", got.Len(), len(want))
	}
	return run, nil
}

// layers fills the traced phase's per-layer figures. base is the
// phase start on the tracer's clock.
func (f *serveFixture) layers(tr *tracer, ph *phase, base int64, arrivals []arrival, results []result, ids []int64, late []float64, runs []rerun) error {
	total := 0.0
	for i, r := range results {
		if arrivals[i].stage == stageRamp {
			continue // the ledger covers the fixed-rate stages, not the overload search
		}
		root := tr.add(span{Name: "loadgen.request", Start: base + int64(r.due), End: base + int64(r.done), ID: ids[i]})
		tr.addChild(span{Name: "client.send", Start: base + int64(r.sent), End: base + int64(r.done), ID: ids[i]}, root)
		total += r.latency().Seconds()
	}
	tr.link(map[string]string{"serve.handler": "client.send"})
	self := selfTimes(tr.spans)
	l := newLedger("summed latency from due time, light and heavy stages", total, tr.spans, self, "loadgen.request", true)
	ph.ledger = &l
	lm := spanLayers(tr.spans, ph)
	var hitUS, missUS, netUS []float64
	for i, s := range tr.spans {
		switch s.Name {
		case "serve.handler":
			if s.Parent < 0 {
				continue // a ramp request: outside the fixed-rate stages
			}
			us := float64(s.dur().Nanoseconds()) / 1e3
			if s.Label == "hit" {
				hitUS = append(hitUS, us)
			} else {
				missUS = append(missUS, us)
			}
		case "client.send":
			netUS = append(netUS, float64(self[i].Nanoseconds())/1e3)
		}
	}
	ph.pcts = append(ph.pcts,
		layerPct(lm, "serve.handler_us.hit.p50", hitUS, 0.5), layerPct(lm, "serve.handler_us.hit.p99", hitUS, 0.99),
		layerPct(lm, "serve.handler_us.miss.p50", missUS, 0.5), layerPct(lm, "serve.handler_us.miss.p99", missUS, 0.99),
		layerPct(lm, "serve.net_us.p50", netUS, 0.5), layerPct(lm, "loadgen.late_ms.p99", late, 0.99))
	lm["serve.hit_ratio"] = float64(len(hitUS)) / float64(len(hitUS)+len(missUS))
	var runMS, simUS []float64
	var kinds []string
	for _, r := range runs {
		runMS, kinds = append(runMS, r.ms), append(kinds, r.kind)
		if r.simUS > 0 {
			simUS = append(simUS, r.simUS)
		}
	}
	scenarioRunLayers(lm, ph, runMS, kinds)
	if len(simUS) > 0 {
		lm["scenario.sim_us_per_host_ms"] = sum(simUS) / sum(runMS)
	}
	specs := make([]scenario.Scenario, len(f.hot))
	for i, r := range f.hot {
		specs[i] = r.spec
	}
	lm["scenario.hash_us"] = hashProbe(specs)
	lm["soc.build_us"], lm["soc.reset_us"] = socProbe(f.e.seed)
	st, err := fetchServeStats(f.api.Handler())
	if err != nil {
		return err
	}
	lm["soc.built"], lm["soc.reused"] = float64(st.Machines.Constructed), float64(st.Machines.Reused)
	ph.layers = lm
	return nil
}
