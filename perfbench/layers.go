package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// The wrappers below time calls into each layer's public entry points
// from outside the program; the program itself carries no spans.

func cellKey(hash string, seed int64) string { return hash + "-" + strconv.FormatInt(seed, 10) }

// kindLabel names the per-kind scenario.run bucket of a cell.
func kindLabel(s scenario.Scenario) string {
	if s.Role == scenario.RoleMitigation {
		return "mitigation-eval"
	}
	return s.Kind // callers pass normalized specs
}

// tracedStore decorates a store.Store with store.get / store.put spans
// and hit, miss and error counts.
type tracedStore struct {
	inner                store.Store
	tr                   *tracer
	run                  string // cell IDs are per sweep run
	hits, misses, errors atomic.Int64
}

func (s *tracedStore) Get(key store.Key) (*scenario.Result, bool, error) {
	t0 := s.tr.now()
	res, ok, err := s.inner.Get(key)
	s.tr.add(span{Name: "store.get", Start: t0, End: s.tr.now(), ID: s.tr.id(s.run + cellKey(key.Hash, key.Seed))})
	switch {
	case err != nil:
		s.errors.Add(1)
	case ok:
		s.hits.Add(1)
	default:
		s.misses.Add(1)
	}
	return res, ok, err
}

func (s *tracedStore) Put(key store.Key, res *scenario.Result) error {
	t0 := s.tr.now()
	err := s.inner.Put(key, res)
	s.tr.add(span{Name: "store.put", Start: t0, End: s.tr.now(), ID: s.tr.id(s.run + cellKey(key.Hash, key.Seed))})
	if err != nil {
		s.errors.Add(1)
	}
	return err
}

// tracedRunner is an engine.CellRunner that times each cell through an
// inner runner under the span name it is given: scenario.run around
// the in-process scenario.Runner, dist.dispatch around a dist.Pool.
type tracedRunner struct {
	name  string
	inner engine.CellRunner
	tr    *tracer
	run   string
	// simUS and hostNS accumulate simulated µs and host ns over
	// results that report simulated time.
	simUS  atomic.Int64
	hostNS atomic.Int64
}

func (r *tracedRunner) RunCell(ctx context.Context, s scenario.Scenario, hash string, seed int64) (*scenario.Result, error) {
	t0 := r.tr.now()
	res, err := r.inner.RunCell(ctx, s, hash, seed)
	t1 := r.tr.now()
	r.tr.add(span{Name: r.name, Start: t0, End: t1, ID: r.tr.id(r.run + cellKey(hash, seed)), Label: kindLabel(s)})
	if err == nil && res.ElapsedSimUS > 0 {
		r.simUS.Add(int64(res.ElapsedSimUS))
		r.hostNS.Add(t1 - t0)
	}
	return res, err
}

// localRunner is the default executor's path as a CellRunner:
// scenario.Runner{Machines: pool}.RunSeeded.
type localRunner struct{ run scenario.Runner }

func (l localRunner) RunCell(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
	return l.run.RunSeeded(ctx, s, seed)
}

// idHeader carries a cell or request ID from the benchmark's client
// side to its handler wrapper.
const idHeader = "X-Perfbench-Id"

// tracedHandler records a serve.handler span per request, keyed by the
// ID header and labelled hit or miss from the response's top-level
// "cached" flag.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := tr.now()
		sw := &sniffWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		id, _ := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		label := "miss"
		if sw.cached() {
			label = "hit"
		}
		tr.add(span{Name: "serve.handler", Start: t0, End: tr.now(), ID: id, Label: label})
	})
}

// sniffWriter keeps the start of a response body, where the scenario
// envelope's "cached" flag is written (before the result object).
type sniffWriter struct {
	http.ResponseWriter
	head []byte
}

const sniffBytes = 512

func (s *sniffWriter) Write(p []byte) (int, error) {
	if n := sniffBytes - len(s.head); n > 0 {
		s.head = append(s.head, p[:min(n, len(p))]...)
	}
	return s.ResponseWriter.Write(p)
}

func (s *sniffWriter) cached() bool {
	i := bytes.Index(s.head, []byte(`"cached":`))
	return i >= 0 && bytes.HasPrefix(bytes.TrimLeft(s.head[i+len(`"cached":`):], " \t\r\n"), []byte("true"))
}

// tracedTransport times each dist dispatch exchange (request sent to
// response body closed) as a dist.http span, tagging the request with
// the cell ID so the worker's handler span joins the same cell.
type tracedTransport struct {
	inner *http.Transport
	tr    *tracer
	run   string
}

func (t *tracedTransport) CloseIdleConnections() { t.inner.CloseIdleConnections() }

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var frame struct {
		Hash string `json:"hash"`
		Seed int64  `json:"seed"`
	}
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			_ = json.NewDecoder(body).Decode(&frame) // an unparsable frame just gets ID 0
		}
	}
	id := t.tr.id(t.run + cellKey(frame.Hash, frame.Seed))
	req = req.Clone(req.Context())
	req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	t0 := t.tr.now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.tr.add(span{Name: "dist.http", Start: t0, End: t.tr.now(), ID: id})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.tr.add(span{Name: "dist.http", Start: t0, End: t.tr.now(), ID: id})
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	closed atomic.Bool
	done   func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.closed.CompareAndSwap(false, true) {
		b.done()
	}
	return err
}

// serveStats is the part of a server's GET /v1/stats the benchmark reads.
type serveStats struct {
	Machines struct {
		Constructed uint64 `json:"constructed"`
		Reused      uint64 `json:"reused"`
	} `json:"machines"`
}

func fetchServeStats(h http.Handler) (serveStats, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serveStats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

// layerPct publishes one percentile of xs as layer metric name.
func layerPct(lm map[string]float64, name string, xs []float64, q float64) pctNote {
	p := percentile(xs, q)
	lm[name] = p.Value
	return pctNote{name: name, p: p, want: q}
}

// spanLayers derives the span-based per-layer metrics.
func spanLayers(spans []span, ph *phase) map[string]float64 {
	lm := map[string]float64{}
	var runMS, getUS, putUS, cellUS, dispatchMS []float64
	var kinds []string
	for _, s := range spans {
		d := float64(s.dur().Nanoseconds())
		switch s.Name {
		case "scenario.run":
			runMS = append(runMS, d/1e6)
			kinds = append(kinds, s.Label)
		case "store.get":
			getUS = append(getUS, d/1e3)
		case "store.put":
			putUS = append(putUS, d/1e3)
		case "engine.cell":
			cellUS = append(cellUS, d/1e3)
		case "dist.dispatch":
			dispatchMS = append(dispatchMS, d/1e6)
		}
	}
	scenarioRunLayers(lm, ph, runMS, kinds)
	ph.pcts = append(ph.pcts,
		layerPct(lm, "store.get_us.p50", getUS, 0.5), layerPct(lm, "store.get_us.p99", getUS, 0.99),
		layerPct(lm, "store.put_us.p50", putUS, 0.5), layerPct(lm, "store.put_us.p99", putUS, 0.99),
		layerPct(lm, "engine.cell_us.p50", cellUS, 0.5),
		layerPct(lm, "dist.dispatch_ms.p50", dispatchMS, 0.5), layerPct(lm, "dist.dispatch_ms.p99", dispatchMS, 0.99))
	return lm
}

// scenarioRunLayers publishes scenario.run's percentiles, its busy
// time, and its median per kind (kinds[i] labels runMS[i]).
func scenarioRunLayers(lm map[string]float64, ph *phase, runMS []float64, kinds []string) {
	byKind := map[string][]float64{}
	for i, ms := range runMS {
		byKind[kinds[i]] = append(byKind[kinds[i]], ms)
	}
	for k, xs := range byKind {
		lm["scenario.run_ms."+k] = median(xs)
	}
	lm["scenario.busy_s"] = sum(runMS) / 1e3
	ph.pcts = append(ph.pcts,
		layerPct(lm, "scenario.run_ms.p50", runMS, 0.5), layerPct(lm, "scenario.run_ms.p99", runMS, 0.99))
}
