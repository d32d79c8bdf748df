package ichannels_test

// Golden-file regression tests: the quickstart scenario's result
// envelope and the 88-cell Table-6 sweep aggregate are checked in under
// testdata/golden/ and compared byte for byte, so any drift in the wire
// format (field renames, ordering, float formatting, simulation-output
// changes) fails loudly instead of silently invalidating stored
// corpora. Regenerate intentionally with:
//
//	go test -run TestGolden . -update

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ichannels"
	"ichannels/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// compareGolden asserts got matches the checked-in golden file (or
// rewrites it under -update).
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test -run TestGolden . -update` to create it", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s — if the wire-format change is intentional, "+
			"regenerate with `go test -run TestGolden . -update` and review the diff\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// indented marshals v the way the golden files store it (readable
// diffs; compaction-free byte comparison).
func indented(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenQuickstartResult pins the full result envelope of the
// checked-in quickstart scenario (pinned seed 7).
func TestGoldenQuickstartResult(t *testing.T) {
	data, err := os.ReadFile("examples/scenarios/specs/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunScenario(context.Background(), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "quickstart_result.json"), indented(t, res))
}

// TestGoldenTable6Aggregate pins the grouped aggregate of the
// checked-in 88-cell Table-6 sweep at base seed 1 — the repository's
// headline table shape.
func TestGoldenTable6Aggregate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "sweeps", "specs", "table6_processor_mitigation.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 88 || res.Failed != 0 {
		t.Fatalf("table6 grid ran %d cells (%d failed), want 88/0", len(res.Cells), res.Failed)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "table6_aggregate.json"), indented(t, res.Aggregate))
}

// TestGoldenCrossFamily pins the result envelopes of one retire and one
// clockmod transmission (the adopted channel families) and the grouped
// aggregate of the 20-cell cross-family sweep — every kind × every
// mitigation — at base seed 1. Any drift in the new families' decode or
// their wire format fails here byte for byte.
func TestGoldenCrossFamily(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "scenarios", "specs", "crossfamily.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ichannels.ScenarioResult, len(specs))
	for i, s := range specs {
		if results[i], err = ichannels.RunScenario(context.Background(), s); err != nil {
			t.Fatalf("%s: %v", s.Describe(), err)
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden", "crossfamily_results.json"), indented(t, results))

	sweepData, err := os.ReadFile(filepath.Join("examples", "sweeps", "specs", "crossfamily_kind_mitigation.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(sweepData)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 20 || res.Failed != 0 {
		t.Fatalf("cross-family grid ran %d cells (%d failed), want 20/0", len(res.Cells), res.Failed)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "crossfamily_aggregate.json"), indented(t, res.Aggregate))
}

// TestGoldenFig14RefinedAggregate pins the adaptive noise sweep's
// aggregate and refinement record at base seed 1 — both the wire shape
// of the refined trailing envelope and the controller's deterministic
// cell selection (which pass computed what) are covered.
func TestGoldenFig14RefinedAggregate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "sweeps", "specs", "fig14_noise_refined.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d cells failed", res.Failed)
	}
	envelope := struct {
		Aggregate  *sweep.Table           `json:"aggregate"`
		Refinement *sweep.RefinementStats `json:"refinement"`
	}{res.Aggregate, res.Refinement}
	compareGolden(t, filepath.Join("testdata", "golden", "fig14_refined_aggregate.json"), indented(t, envelope))
}

// TestGoldenProtocols pins the result envelopes of every slot-protocol
// path the other goldens leave out: the four baselines in role
// baseline (one with a payload), the thread and smt kinds in role
// channel, the smt and cores spies, a noisy cell and a coded-payload
// cell. A change to any channel's slot timing, reading or decoder
// fails here byte for byte.
func TestGoldenProtocols(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "scenarios", "specs", "protocols.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ichannels.ScenarioResult, len(specs))
	for i, s := range specs {
		if results[i], err = ichannels.RunScenario(context.Background(), s); err != nil {
			t.Fatalf("%s: %v", s.Describe(), err)
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden", "protocols_results.json"), indented(t, results))
}
