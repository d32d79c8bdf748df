package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ichannels/internal/store"
)

// TestServerWarmsFromStore: a restarted server (fresh memory cache,
// same store directory) serves previously computed results from disk
// without recomputing them — the two-tier contract.
func TestServerWarmsFromStore(t *testing.T) {
	st, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"role":"experiment","experiment":"fig6a","seed":5}`
	type response struct {
		Cached bool `json:"cached"`
	}

	var calls1 int64
	ts1 := httptest.NewServer(New(Options{Run: countingRun(&calls1, false), Store: st}).Handler())
	code, body := postJSON(t, ts1, "/v1/scenarios", "application/json", spec)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("first server: status %d: %s", code, body)
	}
	if atomic.LoadInt64(&calls1) != 1 {
		t.Fatalf("first server computed %d times, want 1", calls1)
	}
	var first response
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request marked cached")
	}

	// "Restart": a new server with an empty memory cache on the same
	// store.
	var calls2 int64
	srv2 := New(Options{Run: countingRun(&calls2, false), Store: st})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, body = postJSON(t, ts2, "/v1/scenarios", "application/json", spec)
	if code != http.StatusOK {
		t.Fatalf("second server: status %d: %s", code, body)
	}
	if atomic.LoadInt64(&calls2) != 0 {
		t.Fatalf("second server computed %d times, want 0 (store should serve it)", calls2)
	}
	var second response
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("store-served request not marked cached")
	}
	if hits, fails := srv2.StoreStats(); hits != 1 || fails != 0 {
		t.Errorf("store stats %d hits / %d failures, want 1/0", hits, fails)
	}
}

// TestV1SweepSkipsMaterializedCells: re-posting a sweep to a restarted
// server recomputes nothing — every cell streams with "cached":true,
// and the aggregate bytes match the cold run's.
func TestV1SweepSkipsMaterializedCells(t *testing.T) {
	st, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(New(Options{Store: st}).Handler())
	code, cold := postBody(t, ts1, "/v1/sweeps?seed=11", testSweepSpec)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("cold sweep: status %d: %s", code, cold)
	}
	coldCells, coldAgg := parseSweepStream(t, cold)
	for i, c := range coldCells {
		if c.Cached {
			t.Errorf("cold cell %d marked cached", i)
		}
	}

	srv2 := New(Options{Store: st})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, warm := postBody(t, ts2, "/v1/sweeps?seed=11", testSweepSpec)
	if code != http.StatusOK {
		t.Fatalf("warm sweep: status %d: %s", code, warm)
	}
	cells, warmAgg := parseSweepStream(t, warm)
	for i, c := range cells {
		if !c.Cached {
			t.Errorf("cell %d not served from the store", i)
		}
	}
	if string(coldAgg) != string(warmAgg) {
		t.Errorf("aggregate differs across restart:\ncold: %s\nwarm: %s", coldAgg, warmAgg)
	}
	if hits, fails := srv2.StoreStats(); hits != int64(len(cells)) || fails != 0 {
		t.Errorf("store stats %d hits / %d failures, want %d/0", hits, fails, len(cells))
	}
}
