package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ichannels/internal/exp"
	"ichannels/internal/scenario"
)

// TestParallelMatchesSerial is the engine's core guarantee: for a fixed
// base seed, a parallel batch over every registered experiment produces
// reports byte-identical to the serial batch, in both renderings.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial, err := RunScenarios(ctx, ScenarioOptions{Scenarios: scenario.AllExperiments(), BaseSeed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunScenarios(ctx, ScenarioOptions{Scenarios: scenario.AllExperiments(), BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(exp.IDs()) || len(par.Results) != len(serial.Results) {
		t.Fatalf("result counts: serial %d, parallel %d, registry %d",
			len(serial.Results), len(par.Results), len(exp.IDs()))
	}
	for i := range serial.Results {
		s, p := serial.Results[i], par.Results[i]
		id := exp.IDs()[i]
		if s.Scenario.Experiment != id || p.Scenario.Experiment != id || s.Seed != p.Seed {
			t.Fatalf("result %d ordering diverged: %s/%d vs %s/%d",
				i, s.Scenario.Experiment, s.Seed, p.Scenario.Experiment, p.Seed)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s failed: serial %v, parallel %v", id, s.Err, p.Err)
		}
		if s.Result.Report.String() != p.Result.Report.String() {
			t.Errorf("%s: text reports differ between serial and parallel", id)
		}
		sj, err := json.Marshal(s.Result.Report)
		if err != nil {
			t.Fatalf("%s: marshal serial: %v", id, err)
		}
		pj, err := json.Marshal(p.Result.Report)
		if err != nil {
			t.Fatalf("%s: marshal parallel: %v", id, err)
		}
		if !bytes.Equal(sj, pj) {
			t.Errorf("%s: JSON reports differ between serial and parallel", id)
		}
	}
	// The full deterministic text stream must match byte for byte too.
	var st, pt bytes.Buffer
	if err := serial.WriteText(&st); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteText(&pt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Bytes(), pt.Bytes()) {
		t.Error("WriteText streams differ between serial and parallel")
	}
}

// fakeRun returns a ScenarioRunFunc that sleeps for d and records the
// peak number of concurrently running invocations.
func fakeRun(d time.Duration, cur, peak *int64) ScenarioRunFunc {
	return func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		n := atomic.AddInt64(cur, 1)
		for {
			old := atomic.LoadInt64(peak)
			if n <= old || atomic.CompareAndSwapInt64(peak, old, n) {
				break
			}
		}
		time.Sleep(d)
		atomic.AddInt64(cur, -1)
		return &scenario.Result{Role: s.Role, Hash: s.Hash(), Seed: seed}, nil
	}
}

// TestParallelIsFaster checks the pool actually overlaps work: four
// 60 ms jobs on four workers must beat the serial run by a wide margin
// and must have run concurrently.
func TestParallelIsFaster(t *testing.T) {
	specs := []scenario.Scenario{
		{Role: scenario.RoleChannel, Bits: 8},
		{Role: scenario.RoleChannel, Bits: 10},
		{Role: scenario.RoleChannel, Bits: 12},
		{Role: scenario.RoleChannel, Bits: 14},
	}
	var cur, peak int64
	serial, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: specs, Parallel: 1, Run: fakeRun(60*time.Millisecond, &cur, &peak),
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 1 {
		t.Fatalf("serial run overlapped: peak concurrency %d", peak)
	}
	peak = 0
	par, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: specs, Parallel: 4, Run: fakeRun(60*time.Millisecond, &cur, &peak),
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Errorf("parallel run never overlapped: peak concurrency %d", peak)
	}
	if par.Elapsed >= serial.Elapsed {
		t.Errorf("parallel batch (%v) not faster than serial (%v)", par.Elapsed, serial.Elapsed)
	}
}

// TestCancellation: cancelling the context abandons queued scenarios
// with the context's error while letting running ones finish.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	run := func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		once.Do(cancel) // first job cancels the rest
		return &scenario.Result{Role: s.Role, Seed: seed}, nil
	}
	var specs []scenario.Scenario
	for bits := 8; bits < 20; bits += 2 {
		specs = append(specs, scenario.Scenario{Role: scenario.RoleChannel, Bits: bits})
	}
	b, err := RunScenarios(ctx, ScenarioOptions{Scenarios: specs, Parallel: 1, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if b.Results[0].Err != nil {
		t.Fatalf("first job must complete, got %v", b.Results[0].Err)
	}
	cancelled := 0
	for _, r := range b.Results[1:] {
		if r.Err == context.Canceled {
			cancelled++
		}
	}
	if cancelled != len(specs)-1 {
		t.Errorf("%d of %d queued jobs cancelled", cancelled, len(specs)-1)
	}
	if len(b.Failed()) != cancelled {
		t.Errorf("Failed() = %d, want %d", len(b.Failed()), cancelled)
	}
}

// TestPanicIsolation: a panicking runner becomes an error on its
// experiment's outcome, not a crashed batch.
func TestPanicIsolation(t *testing.T) {
	run := func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		if s.Experiment == "fig6b" {
			panic("kaboom")
		}
		return &scenario.Result{Role: s.Role, Experiment: s.Experiment, Report: exp.NewReport(s.Experiment, "t")}, nil
	}
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{
			scenario.FromExperiment("fig6a"), scenario.FromExperiment("fig6b"), scenario.FromExperiment("fig13"),
		},
		Parallel: 2, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Results[0].Err != nil || b.Results[2].Err != nil {
		t.Error("healthy experiments affected by the panicking one")
	}
	if b.Results[1].Err == nil || !strings.Contains(b.Results[1].Err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", b.Results[1].Err)
	}
}

// TestUnknownIDRejectedUpfront: an experiment-role scenario naming an
// unregistered experiment fails the whole batch before anything runs.
func TestUnknownIDRejectedUpfront(t *testing.T) {
	var ran int64
	_, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{scenario.FromExperiment("fig13"), scenario.FromExperiment("nope")},
		Run: func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
			atomic.AddInt64(&ran, 1)
			return &scenario.Result{Role: s.Role}, nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Errorf("unknown experiment not rejected: %v", err)
	}
	if ran != 0 {
		t.Errorf("%d scenarios ran before the batch was rejected", ran)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "fig6a") != DeriveSeed(1, "fig6a") {
		t.Error("DeriveSeed not stable")
	}
	if DeriveSeed(1, "fig6a") == DeriveSeed(1, "fig6b") {
		t.Error("distinct experiments must get distinct seeds")
	}
	if DeriveSeed(1, "fig6a") == DeriveSeed(2, "fig6a") {
		t.Error("distinct base seeds must derive distinct seeds")
	}
	// The derivation is a documented contract (recorded batch baselines
	// depend on it): pin one value so accidental changes to the mixing
	// fail loudly instead of silently moving every batch-mode report.
	if got := DeriveSeed(1, "fig6a"); got != 3590564834515440597 {
		t.Errorf("DeriveSeed(1, fig6a) = %d, want 3590564834515440597 (derivation changed!)", got)
	}
	seen := map[int64]string{}
	for _, id := range exp.IDs() {
		s := DeriveSeed(1, id)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %s and %s", prev, id)
		}
		seen[s] = id
	}
}

// TestWriteTextSkipsFailures: a failed experiment-role scenario gets an
// ERROR row in the comparison table and no report rendering, while the
// reports of the successful ones still follow the table.
func TestWriteTextSkipsFailures(t *testing.T) {
	run := func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		if s.Experiment == "fig6a" {
			return nil, context.DeadlineExceeded
		}
		rep := exp.NewReport(s.Experiment, "t")
		rep.Table("x", "h").AddRow("v")
		return &scenario.Result{Role: s.Role, Experiment: s.Experiment, Seed: seed, Report: rep}, nil
	}
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{
			scenario.FromExperiment("fig6a"), scenario.FromExperiment("fig6b"), scenario.FromExperiment("fig13"),
		},
		Parallel: 1, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ERROR: "+context.DeadlineExceeded.Error()) {
		t.Error("failed scenario has no ERROR row")
	}
	if strings.Contains(out, "=== fig6a") {
		t.Error("failed scenario rendered a report")
	}
	if !strings.Contains(out, "=== fig6b") || !strings.Contains(out, "=== fig13") {
		t.Error("successful reports missing from text stream")
	}
}

// TestBatchJSONShape: an experiment-role scenario's report rides in the
// batch JSON under result.report, with the derived seed alongside.
func TestBatchJSONShape(t *testing.T) {
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{scenario.FromExperiment("fig13")}, BaseSeed: 1, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		BaseSeed int64 `json:"base_seed"`
		Failed   int   `json:"failed"`
		Results  []struct {
			Seed   int64 `json:"seed"`
			Result *struct {
				Experiment string `json:"experiment"`
				Report     *struct {
					ID      string             `json:"id"`
					Metrics map[string]float64 `json:"metrics"`
				} `json:"report"`
			} `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("batch JSON does not round-trip: %v", err)
	}
	if decoded.Failed != 0 || len(decoded.Results) != 1 {
		t.Fatalf("unexpected batch shape: %+v", decoded)
	}
	r := decoded.Results[0]
	if r.Result == nil || r.Result.Experiment != "fig13" || r.Result.Report == nil || r.Result.Report.ID != "fig13" {
		t.Fatalf("report missing from JSON: %+v", r)
	}
	if r.Seed != DeriveScenarioSeed(1, scenario.FromExperiment("fig13")) {
		t.Errorf("JSON seed %d is not the derived seed", r.Seed)
	}
	if len(r.Result.Report.Metrics) == 0 {
		t.Error("metrics missing from JSON report")
	}
}
