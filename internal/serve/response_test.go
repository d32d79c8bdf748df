package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ichannels/internal/exp"
	"ichannels/internal/scenario"
)

// scenarioResponse is a single-object response as a struct. Tests
// decode responses into it, and writeJSON of it is the oracle
// writeScenario must match byte for byte.
type scenarioResponse struct {
	Name      string           `json:"name,omitempty"`
	Hash      string           `json:"hash"`
	Seed      int64            `json:"seed"`
	Cached    bool             `json:"cached"`
	ElapsedUS float64          `json:"elapsed_us"`
	Result    *scenario.Result `json:"result"`
}

// checkScenarioResponse writes resp through writeScenario from ent,
// which holds resp.Result, and through the oracle, and fails unless
// status, Content-Type and body agree.
func checkScenarioResponse(t *testing.T, ent *cacheEntry, resp scenarioResponse) {
	t.Helper()
	got := httptest.NewRecorder()
	writeScenario(got, resp.Name, resp.Hash, resp.Seed, resp.Cached, resp.ElapsedUS, ent)
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, resp)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("status/type %d %q, oracle %d %q", got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("response differs from oracle:\ngot    %q\noracle %q", got.Body.Bytes(), want.Body.Bytes())
	}
}

// realResults runs one scenario of every result shape: a channel with
// a payload that needs HTML escaping, a mitigation evaluation, a spy,
// and a paper experiment with its report.
func realResults(t *testing.T) []*scenario.Result {
	t.Helper()
	var out []*scenario.Result
	for _, spec := range []string{
		`{"role":"channel","kind":"cores","bits":16,"seed":3}`,
		`{"role":"channel","kind":"thread","payload":"a<b&c>\"d\u2028","seed":4}`,
		`{"role":"mitigation-eval","kind":"cores","processor":"Coffee Lake","mitigation":"percore-vr","bits":32}`,
		`{"role":"spy","kind":"smt","bits":8,"seed":2}`,
		`{"role":"experiment","experiment":"fig13","seed":9}`,
	} {
		specs, _, err := scenario.ParseSpecs([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(context.Background(), specs[0])
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		out = append(out, res)
	}
	return out
}

// TestScenarioResponseMatchesOracle: the hand-written single-object
// response is byte-identical to encoding the response struct, for every
// result role, names that need escaping, both cache states, and elapsed
// values on both sides of encoding/json's exponent cut-offs.
func TestScenarioResponseMatchesOracle(t *testing.T) {
	names := []string{"", "plain", `<>&"\`, "line\u2028sep\u2029", "bad\xffutf8\xc3", "tab\tnl\n\x00\x7f", "ünï"}
	elapsed := []float64{0, 12.345, 1e-6, 9.99e-7, 1e-7, 999999.5, 1e20, 9.5e20, 1e21, 3.5e22, math.MaxFloat64}
	for _, res := range realResults(t) {
		for _, name := range names {
			for _, cached := range []bool{false, true} {
				for _, e := range elapsed {
					checkScenarioResponse(t, &cacheEntry{result: res}, scenarioResponse{
						Name: name, Hash: res.Hash, Seed: res.Seed, Cached: cached, ElapsedUS: e, Result: res,
					})
				}
			}
		}
		// The stored block is reused: a second response from the same
		// entry with other metadata is still the oracle's.
		ent := &cacheEntry{result: res}
		for _, name := range []string{"first", "second<"} {
			checkScenarioResponse(t, ent, scenarioResponse{
				Name: name, Hash: res.Hash, Seed: res.Seed, Cached: true, ElapsedUS: 1.5, Result: res,
			})
		}
	}
	// Shapes no real run produces: a nil result, an empty one, and one
	// that encoding/json refuses (the body stays empty, as before).
	for _, res := range []*scenario.Result{nil, {}, {BER: math.NaN()}} {
		checkScenarioResponse(t, &cacheEntry{result: res}, scenarioResponse{Hash: "h", Seed: 1, Result: res})
	}
}

// TestServedResponsesMatchOracle: what the handler writes on a miss and
// on a hit re-encodes, through the oracle, to the same bytes.
func TestServedResponsesMatchOracle(t *testing.T) {
	h := New(Options{Run: countingRun(new(int64), false)}).Handler()
	for _, spec := range []string{
		`{"name":"a<b>&\u2028","role":"channel","kind":"cores","bits":16,"seed":5}`,
		`{"role":"experiment","experiment":"fig6a","seed":3}`,
	} {
		for _, wantCached := range []bool{false, true} {
			rec := postHandler(h, spec)
			var resp scenarioResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Cached != wantCached {
				t.Fatalf("%s: cached %v (want %v), %v: %s", spec, resp.Cached, wantCached, err, rec.Body.Bytes())
			}
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, resp)
			if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s: served bytes differ from oracle:\ngot    %s\noracle %s", spec, rec.Body.Bytes(), want.Body.Bytes())
			}
		}
	}
}

// postHandler posts one spec to /v1/scenarios through h.
func postHandler(h http.Handler, spec string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(spec))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// FuzzScenarioResponse: for arbitrary metadata and result scalars the
// hand-written response equals the oracle's bytes.
func FuzzScenarioResponse(f *testing.F) {
	f.Add("", "0123abcd", int64(42), false, 0.0, 0.0, 2809.5, "mitigated", "fig13", "gap", -25567.0)
	f.Add(`<>&"\`, "h\u2028", int64(-1), true, 1e21, 0.5, 1e-7, "", "\xff", "", 0.0)
	f.Add("ünï\x00", "", int64(math.MaxInt64), true, 0.0000005, math.Inf(1), 0.0, "a&b", "note", "k<", 1e300)
	f.Fuzz(func(t *testing.T, name, hash string, seed int64, cached bool, elapsed, ber, tput float64,
		verdict, text, extraKey string, extraVal float64) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			t.Skip("elapsed_us is a measured duration, always finite")
		}
		res := &scenario.Result{
			Role: scenario.RoleChannel, Hash: hash, Seed: seed, Bits: 2,
			SentBits: []int{1, 0}, DecodedBits: []int{0, 1}, DecodedPayload: text,
			ThroughputBPS: tput, BER: ber, Verdict: verdict,
			Extra: map[string]float64{extraKey: extraVal}, Notes: []string{text},
		}
		res.Report = exp.NewReport(text, verdict)
		res.Report.Metric(extraKey, extraVal)
		checkScenarioResponse(t, &cacheEntry{result: res}, scenarioResponse{
			Name: name, Hash: hash, Seed: seed, Cached: cached, ElapsedUS: elapsed, Result: res,
		})
	})
}

// BenchmarkServeHit measures the serve overhead of a cache hit: one
// single-object POST /v1/scenarios through Handler() whose result is
// already cached, at three payload sizes.
func BenchmarkServeHit(b *testing.B) {
	for _, bits := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			h := New(Options{}).Handler()
			spec := fmt.Sprintf(`{"role":"channel","kind":"cores","bits":%d,"seed":42}`, bits)
			if rec := postHandler(h, spec); rec.Code != http.StatusOK {
				b.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.Bytes())
			}
			b.ReportAllocs()
			for b.Loop() {
				if rec := postHandler(h, spec); rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}
