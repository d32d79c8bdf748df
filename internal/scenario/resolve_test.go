package scenario

import "testing"

// resolveCell is one noisy channel cell as a sweep yields it: the
// shape the engine's dispatcher normalizes, validates and hashes once
// per cell.
var resolveCell = Scenario{
	Role: RoleChannel, Processor: "Skylake-SP", Kind: KindSMT, Bits: 256,
	Noise: &Noise{InterruptsPerSec: 2000, CtxSwitchesPerSec: 500, TSCJitterCycles: 40},
}

// resolveSpec is the per-cell spec work of the engine's dispatcher.
func resolveSpec(s Scenario) string {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n.Hash()
}

// BenchmarkCellResolve measures Normalized + Validate + Hash of one
// noisy channel cell.
func BenchmarkCellResolve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resolveSpec(resolveCell)
	}
}

// mitigationGrid is the 144-cell mitigation-eval grid of the
// performance harness.
const mitigationGrid = `{
  "name": "perfbench-mitigation",
  "base": {"role": "mitigation-eval"},
  "axes": {
    "processor": ["Haswell", "Coffee Lake", "Cannon Lake", "Skylake-SP"],
    "kind": ["thread", "smt", "cores", "retire", "clockmod"],
    "bits": [16, 32, 256, 1024],
    "mitigation": ["none", "percore-vr"]
  },
  "filters": [{"processor": "Coffee Lake", "kind": "smt"}, {"processor": "Coffee Lake", "kind": "retire"}]
}`

// BenchmarkSweepCountCells measures the validating count pass a sweep
// makes before any cell runs.
func BenchmarkSweepCountCells(b *testing.B) {
	sw, err := ParseSweep([]byte(mitigationGrid))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := sw.CountCells()
		if err != nil || n != 144 {
			b.Fatalf("CountCells = %d, %v; want 144", n, err)
		}
	}
}

// TestResolveAllocs pins the allocation counts of the per-cell spec
// work: resolving a cell allocates only its hash string, and the
// validating count pass allocates per sweep (axes, labels, lookups),
// not per cell.
func TestResolveAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { resolveSpec(resolveCell) }); n != 1 {
		t.Errorf("Normalized+Validate+Hash allocates %.0f objects per cell, want 1", n)
	}
	sw, err := ParseSweep([]byte(mitigationGrid))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = sw.CountCells() }); n > 28 {
		t.Errorf("CountCells of the 144-cell grid allocates %.0f objects, want at most 28", n)
	}
}
