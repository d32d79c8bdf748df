package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ichannels/internal/exp"
)

// countingRun wraps a fake runner and counts executions per (id, seed).
func countingRun(calls *int64, fail bool) func(string, int64) (*exp.Report, error) {
	return func(id string, seed int64) (*exp.Report, error) {
		atomic.AddInt64(calls, 1)
		if fail {
			return nil, errors.New("synthetic failure")
		}
		rep := exp.NewReport(id, "served")
		rep.Metric("seed", float64(seed))
		rep.Table("t", "a", "b").AddRow("1", "2")
		return rep, nil
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func post(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestListExperiments: GET /v1/experiments lists every registered
// experiment with a complete entry.
func TestListExperiments(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var list []exp.Experiment
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(exp.IDs()) {
		t.Fatalf("listed %d experiments, registry has %d", len(list), len(exp.IDs()))
	}
	for _, e := range list {
		if e.ID == "" || e.Desc == "" || e.Section == "" {
			t.Errorf("incomplete listing entry: %+v", e)
		}
	}
}

// runExperiment posts one experiment-role scenario with a pinned seed
// to /v1/scenarios — the one HTTP route for a paper figure.
func runExperiment(t *testing.T, ts *httptest.Server, id string, seed int64) (int, []byte) {
	t.Helper()
	return postJSON(t, ts, "/v1/scenarios", "application/json",
		fmt.Sprintf(`{"role":"experiment","experiment":%q,"seed":%d}`, id, seed))
}

// decodeScenario unmarshals a single-scenario response.
func decodeScenario(t *testing.T, body []byte) scenarioResponse {
	t.Helper()
	var resp scenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response not JSON: %v: %s", err, body)
	}
	return resp
}

func TestRunAndCacheHit(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := runExperiment(t, ts, "fig6a", 7)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, body)
	}
	first := decodeScenario(t, body)
	if first.Cached || first.Result.Experiment != "fig6a" || first.Seed != 7 {
		t.Fatalf("first response: %+v", first)
	}
	if first.Result.Report == nil || first.Result.Report.Metrics["seed"] != 7 {
		t.Fatalf("report missing or wrong seed: %+v", first.Result.Report)
	}

	code, body2 := runExperiment(t, ts, "fig6a", 7)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d", code)
	}
	second := decodeScenario(t, body2)
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	if calls != 1 {
		t.Errorf("runner executed %d times, want 1", calls)
	}
	// The deterministic payload must be byte-identical across the two.
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if string(a) != string(b) {
		t.Error("cached result differs from the computed one")
	}

	// A different seed is a different key.
	if code, _ := runExperiment(t, ts, "fig6a", 8); code != http.StatusOK {
		t.Fatalf("seed 8: status %d", code)
	}
	if calls != 2 {
		t.Errorf("distinct seed did not recompute (calls=%d)", calls)
	}
	if hits, misses := srv.CacheStats(); hits != 1 || misses != 2 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestConcurrentRequestsCoalesce(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/scenarios", "application/json",
				strings.NewReader(`{"role":"experiment","experiment":"fig13","seed":3}`))
			if err == nil {
				codes[i] = resp.StatusCode
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if calls != 1 {
		t.Errorf("%d concurrent identical requests ran the experiment %d times, want 1", n, calls)
	}
}

func TestMaxConcurrentBoundsDistinctSeeds(t *testing.T) {
	var cur, peak int64
	slow := func(id string, seed int64) (*exp.Report, error) {
		n := atomic.AddInt64(&cur, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if n <= old || atomic.CompareAndSwapInt64(&peak, old, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return exp.NewReport(id, "slow"), nil
	}
	srv := New(Options{Run: slow, MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 1; i <= 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/scenarios", "application/json",
				strings.NewReader(fmt.Sprintf(`{"role":"experiment","experiment":"fig6a","seed":%d}`, i)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if peak > 2 {
		t.Errorf("peak concurrent simulations %d exceeds MaxConcurrent=2", peak)
	}
	if peak < 2 {
		t.Errorf("distinct-seed requests never overlapped (peak %d)", peak)
	}
}

func TestCacheEviction(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false), MaxCacheEntries: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runExperiment(t, ts, "fig6a", 1) // cache: {1}
	runExperiment(t, ts, "fig6a", 2) // cache: {1, 2}
	runExperiment(t, ts, "fig6a", 3) // evicts 1 → {2, 3}
	if calls != 3 {
		t.Fatalf("3 distinct seeds ran %d times", calls)
	}
	if _, body := runExperiment(t, ts, "fig6a", 3); calls != 3 {
		t.Errorf("seed 3 should be cached: %s", body)
	}
	runExperiment(t, ts, "fig6a", 1) // evicted → recompute
	if calls != 4 {
		t.Errorf("evicted seed 1 not recomputed (calls=%d)", calls)
	}

	// Negative MaxCacheEntries disables caching entirely.
	var calls2 int64
	srv2 := New(Options{Run: countingRun(&calls2, false), MaxCacheEntries: -1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	runExperiment(t, ts2, "fig6a", 1)
	runExperiment(t, ts2, "fig6a", 1)
	if calls2 != 2 {
		t.Errorf("caching disabled but runner ran %d times for 2 requests", calls2)
	}
}

// TestEvictionSkipsInFlight: at the cap, a miss evicts the oldest
// completed entry, never an in-flight one — the entry being computed
// and the request coalesced onto it survive and share one run.
func TestEvictionSkipsInFlight(t *testing.T) {
	var mu sync.Mutex
	calls := map[int64]int{}
	var startOnce sync.Once
	started, release := make(chan struct{}), make(chan struct{})
	run := func(id string, seed int64) (*exp.Report, error) {
		mu.Lock()
		calls[seed]++
		mu.Unlock()
		if seed == 1 {
			startOnce.Do(func() { close(started) })
			<-release
		}
		return exp.NewReport(id, "served"), nil
	}
	srv := New(Options{Run: run, MaxCacheEntries: 2, MaxConcurrent: -1})
	h := srv.Handler()
	serve := func(seed int64) (int, scenarioResponse) {
		rec := postHandler(h, fmt.Sprintf(`{"role":"experiment","experiment":"fig6a","seed":%d}`, seed))
		var resp scenarioResponse
		json.Unmarshal(rec.Body.Bytes(), &resp)
		return rec.Code, resp
	}
	type outcome struct {
		code int
		resp scenarioResponse
	}
	held := make(chan outcome, 2)
	serveHeld := func() {
		code, resp := serve(1)
		held <- outcome{code, resp}
	}

	go serveHeld() // seed 1: in flight until release
	<-started
	go serveHeld() // a waiter coalesced onto it
	for hits, _ := srv.CacheStats(); hits < 1; hits, _ = srv.CacheStats() {
		time.Sleep(time.Millisecond)
	}
	if code, _ := serve(2); code != http.StatusOK { // {1 in flight, 2}
		t.Fatalf("seed 2: status %d", code)
	}
	// At the cap with the in-flight seed 1 oldest: the miss must skip
	// it and evict 2 → {1, 3}.
	if code, _ := serve(3); code != http.StatusOK {
		t.Fatalf("seed 3: status %d", code)
	}
	close(release)
	for range 2 {
		o := <-held
		if o.code != http.StatusOK || o.resp.Seed != 1 || o.resp.Cached {
			t.Errorf("held seed 1 request: status %d, %+v", o.code, o.resp)
		}
	}
	for _, seed := range []int64{1, 3} {
		if code, resp := serve(seed); code != http.StatusOK || !resp.Cached {
			t.Errorf("seed %d was evicted: status %d, cached %v", seed, code, resp.Cached)
		}
	}
	if code, resp := serve(2); code != http.StatusOK || resp.Cached {
		t.Errorf("seed 2, the oldest completed entry, survived: status %d, cached %v", code, resp.Cached)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls[1] != 1 || calls[2] != 2 || calls[3] != 1 {
		t.Errorf("runs per seed %v, want 1:1 2:2 3:1", calls)
	}
}

func TestErrorPaths(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, true)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := runExperiment(t, ts, "doesnotexist", 1)
	if code != http.StatusBadRequest || decodeErr(t, body).Code != CodeInvalidScenario {
		t.Errorf("unknown experiment: status %d body %s, want 400 %s", code, body, CodeInvalidScenario)
	}
	if code, _ := postJSON(t, ts, "/v1/scenarios?seed=banana", "application/json",
		`{"role":"experiment","experiment":"fig6a"}`); code != http.StatusBadRequest {
		t.Errorf("bad seed: status %d, want 400", code)
	}
	code, body = runExperiment(t, ts, "fig6a", 1)
	if code != http.StatusInternalServerError {
		t.Errorf("failing runner: status %d, want 500", code)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Errorf("error body not JSON: %s", body)
	}
	// Failures are cached too: a retry must not rerun the experiment.
	if code, _ := runExperiment(t, ts, "fig6a", 1); code != http.StatusInternalServerError {
		t.Error("cached failure lost")
	}
	if calls != 1 {
		t.Errorf("failing experiment ran %d times, want 1 (errors are cached)", calls)
	}
	// Wrong method on a valid route.
	if code, _ := get(t, ts, "/v1/scenarios"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/scenarios: status %d, want 405", code)
	}
}

// TestPanickingRunnerIsIsolated: a runner that panics inside a batch
// becomes that line's error, the stream still completes, and the
// server keeps answering.
func TestPanickingRunnerIsIsolated(t *testing.T) {
	srv := New(Options{Run: func(id string, seed int64) (*exp.Report, error) {
		panic("boom")
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := postJSON(t, ts, "/v1/scenarios", "application/json",
		`[{"role":"experiment","experiment":"fig6a","seed":1},{"role":"experiment","experiment":"fig6b","seed":1}]`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines, want 2: %s", len(lines), body)
	}
	for i, raw := range lines {
		var l scenarioLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatal(err)
		}
		if l.Index != i || l.Error == nil || !strings.Contains(l.Error.Message, "panicked") {
			t.Errorf("line %d: panic not converted to an error line: %s", i, raw)
		}
	}
	// The server must still answer subsequent requests.
	if code, _ := get(t, ts, "/v1/experiments"); code != http.StatusOK {
		t.Error("server unusable after a panicking runner")
	}
}

// TestRealExperimentRoundTrip runs one real (fast) experiment end to end
// through the HTTP layer and checks the report against a direct run.
func TestRealExperimentRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := runExperiment(t, ts, "fig13", 42)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decodeScenario(t, body)
	direct, err := exp.Run("fig13", 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(resp.Result.Report)
	if string(want) != string(got) {
		t.Error("served report differs from a direct exp.Run with the same seed")
	}
}
