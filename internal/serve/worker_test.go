package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ichannels/internal/dist"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

func workerServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Worker = true
	s := New(opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postCell(t *testing.T, srv *httptest.Server, body []byte, contentType string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+dist.DispatchPath, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", dist.DispatchPath, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func cellFrame(t *testing.T, s scenario.Scenario, seed int64) ([]byte, store.Key) {
	t.Helper()
	n := s.Normalized()
	hash := n.Hash()
	frame, err := json.Marshal(dist.NewCellDispatch(n, hash, seed))
	if err != nil {
		t.Fatal(err)
	}
	return frame, store.Key{Hash: hash, Seed: seed}
}

// TestWorkerEndpointServesVerifiableEnvelope: the happy path answers
// with bytes DecodeEnvelope accepts for the dispatched key.
func TestWorkerEndpointServesVerifiableEnvelope(t *testing.T) {
	_, srv := workerServer(t, Options{})
	frame, key := cellFrame(t, scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}, 42)
	resp := postCell(t, srv, frame, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	res, err := store.DecodeEnvelope(key, buf.Bytes())
	if err != nil {
		t.Fatalf("response failed envelope verification: %v", err)
	}
	// The envelope's payload is the canonical result encoding: the
	// bytes a local run marshals to.
	want, err := scenario.Runner{}.RunSeeded(t.Context(), scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}.Normalized(), 42)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(res)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("worker result differs from local run:\nlocal:  %s\nworker: %s", wantJSON, gotJSON)
	}
}

// TestWorkerEndpointRejectsHashMismatch: a dispatched hash the worker
// cannot reproduce is refused with 409/hash_mismatch (version skew).
func TestWorkerEndpointRejectsHashMismatch(t *testing.T) {
	_, srv := workerServer(t, Options{})
	n := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}.Normalized()
	frame, err := json.Marshal(dist.NewCellDispatch(n, "00ff00ff00ff00ff", 42))
	if err != nil {
		t.Fatal(err)
	}
	resp := postCell(t, srv, frame, "application/json")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != CodeHashMismatch {
		t.Errorf("code = %q, want %q", eb.Code, CodeHashMismatch)
	}
}

// TestWorkerEndpointRejections covers the remaining refusal paths.
func TestWorkerEndpointRejections(t *testing.T) {
	_, srv := workerServer(t, Options{})
	n := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}.Normalized()
	good, _ := cellFrame(t, n, 42)

	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(srv.URL + dist.DispatchPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("content-type", func(t *testing.T) {
		if resp := postCell(t, srv, good, "text/plain"); resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("status = %d, want 415", resp.StatusCode)
		}
	})
	t.Run("malformed", func(t *testing.T) {
		if resp := postCell(t, srv, []byte(`{"v":1,`), "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown-field", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`{"v":1`), []byte(`{"v":1,"smuggled":true`), 1)
		if resp := postCell(t, srv, bad, "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`{"v":1`), []byte(`{"v":9`), 1)
		if resp := postCell(t, srv, bad, "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("zero-seed", func(t *testing.T) {
		frame, err := json.Marshal(dist.NewCellDispatch(n, n.Hash(), 0))
		if err != nil {
			t.Fatal(err)
		}
		if resp := postCell(t, srv, frame, "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("invalid-scenario", func(t *testing.T) {
		bad := scenario.Scenario{Role: "warp"}
		frame, err := json.Marshal(dist.CellDispatch{V: dist.DispatchVersion, Hash: bad.Hash(), Seed: 1, Scenario: bad})
		if err != nil {
			t.Fatal(err)
		}
		if resp := postCell(t, srv, frame, "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
}

// TestWorkerEndpointDisabledByDefault: a plain API server must not
// expose the dispatch endpoint.
func TestWorkerEndpointDisabledByDefault(t *testing.T) {
	srv := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+dist.DispatchPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404 when Worker is off", resp.StatusCode)
	}
}

// TestWorkerEndpointSharesCacheAndStore: repeated dispatches coalesce
// on the single-flight cache (cross-node dedup) and successes land in
// the durable store (the shared corpus -resume reads).
func TestWorkerEndpointSharesCacheAndStore(t *testing.T) {
	fs, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, srv := workerServer(t, Options{Store: fs})
	frame, key := cellFrame(t, scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}, 42)

	first := postCell(t, srv, frame, "application/json")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first dispatch: status %d", first.StatusCode)
	}
	if _, ok, err := fs.Get(key); err != nil || !ok {
		t.Fatalf("store.Get after dispatch: ok=%v err=%v, want the result persisted", ok, err)
	}
	hits0, _ := s.CacheStats()
	second := postCell(t, srv, frame, "application/json")
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second dispatch: status %d", second.StatusCode)
	}
	if hits, _ := s.CacheStats(); hits != hits0+1 {
		t.Errorf("cache hits = %d, want %d (repeat dispatch must coalesce)", hits, hits0+1)
	}
	var b1, b2 bytes.Buffer
	b1.ReadFrom(first.Body)
	b2.ReadFrom(second.Body)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("repeat dispatch served different envelope bytes")
	}
}
