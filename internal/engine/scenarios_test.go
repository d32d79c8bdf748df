package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"ichannels/internal/scenario"
)

// testScenarios is a small heterogeneous batch covering several roles.
func testScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8},
		{Role: scenario.RoleChannel, Kind: scenario.KindThread, Bits: 8},
		{Role: scenario.RoleChannel, Kind: scenario.KindSMT, Bits: 8},
		{Role: scenario.RoleSpy, Bits: 8},
		{Role: scenario.RoleBaseline, Baseline: scenario.BaselineNetSpectre, Bits: 4},
		{Role: scenario.RoleExperiment, Experiment: "fig13"},
	}
}

// stripTiming zeroes the wall-clock fields of a batch JSON encoding so
// the deterministic payload can be compared byte-for-byte.
func stripTiming(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("batch JSON: %v", err)
	}
	delete(m, "elapsed_us")
	delete(m, "parallel") // the effective pool size is part of the envelope, not the payload
	results, ok := m["results"].([]any)
	if !ok {
		t.Fatal("batch JSON has no results array")
	}
	for _, r := range results {
		delete(r.(map[string]any), "elapsed_us")
	}
	out, _ := json.Marshal(m)
	return string(out)
}

// TestScenarioSerialMatchesParallel: for a fixed base seed the result
// content of a mixed-role batch is byte-identical across parallelism
// degrees, in both renderings.
func TestScenarioSerialMatchesParallel(t *testing.T) {
	var blobs []string
	for _, par := range []int{1, 4} {
		b, err := RunScenarios(context.Background(), ScenarioOptions{
			Scenarios: testScenarios(), BaseSeed: 11, Parallel: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Failed()) != 0 {
			t.Fatalf("parallel=%d: %d scenarios failed (first: %v)", par, len(b.Failed()), b.Failed()[0].Err)
		}
		var buf bytes.Buffer
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, stripTiming(t, buf.Bytes()))

		var text bytes.Buffer
		if err := b.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, text.String())
	}
	if blobs[0] != blobs[2] {
		t.Error("serial and parallel batch JSON differ")
	}
	if blobs[1] != blobs[3] {
		t.Error("serial and parallel batch text differ")
	}
}

// TestScenarioSeedDerivation: derived seeds are order-independent and
// an explicit spec seed wins.
func TestScenarioSeedDerivation(t *testing.T) {
	a := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}
	c := scenario.Scenario{Role: scenario.RoleSpy, Bits: 8}
	pinned := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindThread, Bits: 8, Seed: 77}

	fake := func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		return &scenario.Result{Role: s.Role, Hash: s.Hash(), Seed: seed}, nil
	}
	fwd, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{a, c, pinned}, BaseSeed: 5, Run: fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{pinned, c, a}, BaseSeed: 5, Run: fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Results[0].Seed != rev.Results[2].Seed || fwd.Results[1].Seed != rev.Results[1].Seed {
		t.Error("derived seeds depend on batch order")
	}
	if fwd.Results[0].Seed == fwd.Results[1].Seed {
		t.Error("distinct scenarios derived the same seed")
	}
	if fwd.Results[2].Seed != 77 {
		t.Errorf("explicit spec seed overridden: got %d", fwd.Results[2].Seed)
	}
	if fwd.Results[0].Seed != DeriveScenarioSeed(5, a) {
		t.Error("batch seed does not match DeriveScenarioSeed")
	}
	other, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{a}, BaseSeed: 6, Run: fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.Results[0].Seed == fwd.Results[0].Seed {
		t.Error("base seed does not influence derived seeds")
	}
}

// TestScenarioBatchValidation: an invalid spec fails the whole batch up
// front, naming the index.
func TestScenarioBatchValidation(t *testing.T) {
	_, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{
			{Role: scenario.RoleChannel, Bits: 8},
			{Role: "warp"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "scenarios[1]") {
		t.Errorf("invalid spec not rejected with its index: %v", err)
	}
}

// TestScenarioPanicIsolationAndOnResult: a panicking runner becomes a
// per-outcome error, and OnResult fires exactly once per scenario with
// the slot populated.
func TestScenarioPanicIsolationAndOnResult(t *testing.T) {
	var fired int64
	specs := []scenario.Scenario{
		{Role: scenario.RoleChannel, Bits: 8},
		{Role: scenario.RoleChannel, Bits: 10},
		{Role: scenario.RoleChannel, Bits: 12},
	}
	var b *ScenarioBatch
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: specs,
		Parallel:  2,
		Run: func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
			if s.Bits == 10 {
				panic("boom")
			}
			return &scenario.Result{Role: s.Role, Seed: seed}, nil
		},
		OnResult: func(i int) {
			atomic.AddInt64(&fired, 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Errorf("OnResult fired %d times, want 3", fired)
	}
	failed := b.Failed()
	if len(failed) != 1 || !strings.Contains(failed[0].Err.Error(), "panicked") {
		t.Errorf("panic not isolated: %+v", failed)
	}
	if b.Results[0].Err != nil || b.Results[2].Err != nil {
		t.Error("healthy scenarios affected by a panicking sibling")
	}
}

// TestScenarioCancellation: a cancelled context marks unstarted
// scenarios with the context error.
func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := RunScenarios(ctx, ScenarioOptions{
		Scenarios: []scenario.Scenario{{Role: scenario.RoleChannel, Bits: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Failed()) != 1 {
		t.Error("cancelled context did not mark the scenario failed")
	}
}

// TestScenarioNDJSON: one line per outcome, each valid JSON.
func TestScenarioNDJSON(t *testing.T) {
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: testScenarios()[:2], BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON produced %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Errorf("NDJSON line not valid JSON: %v: %s", err, ln)
		}
		if _, ok := m["result"]; !ok {
			t.Errorf("NDJSON line missing result: %s", ln)
		}
	}
}

// TestDerivedSeedsArePinnable: derived seeds are always positive so a
// reported seed can be written back into a spec ("seed": N) — which the
// validator requires to be non-negative — and replayed exactly.
func TestDerivedSeedsArePinnable(t *testing.T) {
	specs := testScenarios()
	for base := int64(0); base < 64; base++ {
		for _, s := range specs {
			d := DeriveScenarioSeed(base, s)
			if d <= 0 {
				t.Fatalf("base %d, %s: derived seed %d is not pinnable", base, s.Hash(), d)
			}
			pinned := s
			pinned.Seed = d
			if err := pinned.Validate(); err != nil {
				t.Fatalf("pinning derived seed %d rejected: %v", d, err)
			}
		}
	}
}
