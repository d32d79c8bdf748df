package ichannels_test

// Acceptance tests for adaptive sweep refinement against the real
// simulator: the checked-in Fig. 14-style noise/BER sweep must find its
// knee with at most half the dense grid's cells, and every group it
// does compute must match the dense run exactly (same per-cell seeds ⇒
// same result bytes — the determinism contract extended over grids).

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"ichannels"
)

// loadRefinedSpec loads the checked-in refined noise sweep.
func loadRefinedSpec(t *testing.T) ichannels.Sweep {
	t.Helper()
	data, err := os.ReadFile("examples/sweeps/specs/fig14_noise_refined.json")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// jitterOf recovers the noise axis coordinate from a group key label.
func jitterOf(t *testing.T, label string) int {
	t.Helper()
	if label == "{}" {
		return 0
	}
	var n struct {
		J int `json:"tsc_jitter_cycles"`
	}
	if err := json.Unmarshal([]byte(label), &n); err != nil {
		t.Fatalf("group label %q: %v", label, err)
	}
	return n.J
}

func TestRefinedNoiseSweepMatchesDenseAtHalfTheCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 40-cell dense grid")
	}
	sw := loadRefinedSpec(t)
	threshold := sw.Refine.Threshold

	refined, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	dense := sw
	dense.Refine = nil
	denseRes, err := ichannels.RunSweep(context.Background(), dense, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Failed != 0 || denseRes.Failed != 0 {
		t.Fatalf("failed cells: refined %d, dense %d", refined.Failed, denseRes.Failed)
	}

	// Acceptance: at most 50% of the dense grid computed.
	ref := refined.Refinement
	if ref == nil {
		t.Fatal("no refinement record")
	}
	if ref.DenseCells != len(denseRes.Cells) {
		t.Fatalf("refinement says dense=%d, dense run has %d cells", ref.DenseCells, len(denseRes.Cells))
	}
	if 2*ref.CellsComputed > ref.DenseCells {
		t.Fatalf("refined run computed %d of %d cells (> 50%%)", ref.CellsComputed, ref.DenseCells)
	}

	// Index the dense aggregate by noise coordinate.
	denseBER := map[string]float64{}
	for _, g := range denseRes.Aggregate.Groups {
		denseBER[g.Key["noise"]] = g.BER.Mean
	}

	// Every group the refined run computed matches the dense run
	// exactly: per-cell seeds derive from (base seed, cell hash), so a
	// refined cell IS the dense cell.
	for _, g := range refined.Aggregate.Groups {
		want, ok := denseBER[g.Key["noise"]]
		if !ok {
			t.Fatalf("refined group %v not in the dense aggregate", g.Key)
		}
		if math.Abs(g.BER.Mean-want) > 1e-12 {
			t.Errorf("group %v: refined BER %.6f, dense %.6f", g.Key, g.BER.Mean, want)
		}
	}

	// The controller's stopping invariant: between any two adjacent
	// computed positions with uncomputed cells still in the gap, the
	// metric moved by less than the threshold — nothing visibly moving
	// was left unexplored.
	type point struct {
		jit int
		ber float64
	}
	var refCurve []point
	jitPos := map[int]int{}
	var axis []int
	for _, g := range denseRes.Aggregate.Groups {
		axis = append(axis, jitterOf(t, g.Key["noise"]))
	}
	sort.Ints(axis)
	for i, j := range axis {
		jitPos[j] = i
	}
	for _, g := range refined.Aggregate.Groups {
		refCurve = append(refCurve, point{jit: jitterOf(t, g.Key["noise"]), ber: g.BER.Mean})
	}
	sort.Slice(refCurve, func(i, j int) bool { return refCurve[i].jit < refCurve[j].jit })
	for i := 0; i+1 < len(refCurve); i++ {
		a, b := refCurve[i], refCurve[i+1]
		if jitPos[b.jit]-jitPos[a.jit] > 1 && math.Abs(b.ber-a.ber) >= threshold {
			t.Errorf("interval jitter %d→%d moves %.4f ≥ %v but was left unexplored",
				a.jit, b.jit, math.Abs(b.ber-a.ber), threshold)
		}
	}

	// Knee coverage: the curve's documented transition band (the BER
	// climb between jitter 6k and 14k, whose coarse-visible gradient is
	// several times the threshold) must be locally dense — that is the
	// region the paper's Fig. 14-style curves need sampled finely.
	computed := map[int]bool{}
	for _, p := range refCurve {
		computed[p.jit] = true
	}
	for _, jit := range []int{6000, 7000, 8000, 9000, 10000, 12000, 14000} {
		if !computed[jit] {
			t.Errorf("knee position jitter=%d was not computed by the refined run", jit)
		}
	}
	t.Logf("refined %d/%d cells over %d passes", ref.CellsComputed, ref.DenseCells, len(ref.Passes))
}
