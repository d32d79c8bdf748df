package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ichannels/internal/scenario"
)

// The sweep grid: channel and mitigation-eval cells over the four
// processors × five kinds × a short/long bits mix, the channel cells
// quiet and noisy. Coffee Lake has no SMT, so its smt and retire cells
// are filtered out, and retire's calibration finds no contrast under
// interrupt noise on some seeds, so it runs quiet only: a workload must
// not fail. Light cells (16 and 32 bits) cost a few hundred µs of
// simulation, heavy ones (256 and 1024 bits) a few ms, so the mix
// exercises both the per-cell fixed cost and the simulator proper.
const (
	quietSpec = `{
  "name": "perfbench-quiet",
  "base": {"role": "channel"},
  "axes": {
    "processor": ["Haswell", "Coffee Lake", "Cannon Lake", "Skylake-SP"],
    "kind": ["thread", "smt", "cores", "retire", "clockmod"],
    "bits": [16, 32, 256, 1024]
  },
  "filters": [{"processor": "Coffee Lake", "kind": "smt"}, {"processor": "Coffee Lake", "kind": "retire"}]
}`
	noisySpec = `{
  "name": "perfbench-noisy",
  "base": {"role": "channel", "noise": {"interrupts_per_sec": 2000, "ctx_switches_per_sec": 500, "tsc_jitter_cycles": 40}},
  "axes": {
    "processor": ["Haswell", "Coffee Lake", "Cannon Lake", "Skylake-SP"],
    "kind": ["thread", "smt", "cores", "clockmod"],
    "bits": [16, 32, 256, 1024]
  },
  "filters": [{"processor": "Coffee Lake", "kind": "smt"}]
}`
	mitigationSpec = `{
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
	// sliceSpec is the part of the quiet grid sweep-dist sends to
	// workers: two processors, every kind, light and heavy cells.
	sliceSpec = `{
  "name": "perfbench-slice",
  "base": {"role": "channel"},
  "axes": {
    "processor": ["Haswell", "Cannon Lake"],
    "kind": ["thread", "smt", "cores", "retire", "clockmod"],
    "bits": [16, 32, 256, 1024]
  }
}`
)

// lightBits is the largest payload counted as a light cell.
const lightBits = 32

// gridSpec is one named sweep of a workload's grid.
type gridSpec struct {
	name string
	json string
}

var (
	coldGrid  = []gridSpec{{"quiet", quietSpec}, {"noisy", noisySpec}, {"mitigation", mitigationSpec}}
	sliceGrid = []gridSpec{{"slice", sliceSpec}}
)

// parsedSpec is a gridSpec after the sweep layer's parse, validation
// and expansion: the work `sweep run` does before its first cell.
type parsedSpec struct {
	gridSpec
	sw    scenario.Sweep
	cells []scenario.Cell
}

// expandGrid parses, validates and expands every spec, returning the
// time it took (sweep.expand).
func expandGrid(specs []gridSpec) ([]parsedSpec, time.Duration, error) {
	t0 := time.Now()
	out := make([]parsedSpec, 0, len(specs))
	for _, g := range specs {
		sw, err := scenario.ParseSweep([]byte(g.json))
		if err != nil {
			return nil, 0, fmt.Errorf("grid %s: %w", g.name, err)
		}
		if err := sw.Validate(); err != nil {
			return nil, 0, fmt.Errorf("grid %s: %w", g.name, err)
		}
		it, err := sw.Cells()
		if err != nil {
			return nil, 0, fmt.Errorf("grid %s: %w", g.name, err)
		}
		p := parsedSpec{gridSpec: g, sw: sw}
		for {
			c, ok, err := it.Next()
			if err != nil {
				return nil, 0, fmt.Errorf("grid %s: %w", g.name, err)
			}
			if !ok {
				break
			}
			p.cells = append(p.cells, c)
		}
		out = append(out, p)
	}
	return out, time.Since(t0), nil
}

// Base seeds come from a fixed pool so that every one has a reference
// digest recorded at the seed commit; the workload seed picks which
// ones a run uses and in what order.
const baseSeedPool = 64

// pickBaseSeeds returns k distinct base seeds from the pool, chosen by
// the workload seed.
func pickBaseSeeds(seed int64, k int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(baseSeedPool)
	out := make([]int64, k)
	for i := range out {
		out[i] = int64(perm[i] + 1)
	}
	return out
}

// references maps spec name → base seed → SHA-256 of the sweep's
// aggregate line, as the seed commit produced it.
type references map[string]map[string]string

func loadReferences(path string) (references, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return refs, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares an aggregate line with the recorded reference.
func (r references) check(spec string, baseSeed int64, aggregate []byte) error {
	want, ok := r[spec][fmt.Sprint(baseSeed)]
	if !ok {
		return fmt.Errorf("no reference digest for %s base seed %d", spec, baseSeed)
	}
	if got := digest(aggregate); got != want {
		return fmt.Errorf("%s base seed %d: aggregate digest %.12s, reference %.12s", spec, baseSeed, got, want)
	}
	return nil
}
