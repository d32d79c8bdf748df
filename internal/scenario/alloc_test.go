package scenario

import (
	"context"
	"runtime/debug"
	"testing"

	"ichannels/internal/soc"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocCase is one cell shape the allocation test measures at 16 bits
// and at large bits.
type allocCase struct {
	name  string
	spec  Scenario
	large int
}

// allocCases lists every channel kind quiet and under interrupt noise
// (retire quiet only, as the benchmark grid runs it: its calibration
// finds no contrast under interrupts on some seeds), every kind's
// mitigation-eval under no mitigation and per-core regulators, and every
// baseline. The kinds are measured at 1024 bits; the baselines' slots
// last milliseconds, so 256 bits already spans seconds of simulated
// time.
func allocCases() []allocCase {
	var cases []allocCase
	noisy := &Noise{InterruptsPerSec: 2000}
	for _, k := range ChannelKindNames() {
		cases = append(cases, allocCase{k + "/quiet", Scenario{Role: RoleChannel, Kind: k}, 1024})
		if k != KindRetire {
			cases = append(cases, allocCase{k + "/noisy", Scenario{Role: RoleChannel, Kind: k, Noise: noisy}, 1024})
		}
		for _, mit := range []string{"none", "percore-vr"} {
			cases = append(cases, allocCase{k + "/mitigation-eval/" + mit,
				Scenario{Role: RoleMitigation, Kind: k, Mitigation: mit}, 1024})
		}
	}
	for _, b := range BaselineNames() {
		cases = append(cases, allocCase{"baseline/" + b, Scenario{Role: RoleBaseline, Baseline: b}, 256})
	}
	return cases
}

// cellAllocs returns the heap allocations of one pooled run of s at the
// given payload size, after a warm-up run has filled the pool and grown
// every reused buffer. It takes the least of a few measurements: the
// runtime itself occasionally allocates inside one (starting an OS
// thread after a preemption), and that one-off is not the cell's.
func cellAllocs(t *testing.T, pool *soc.Pool, s Scenario, bits int) float64 {
	t.Helper()
	s.Bits = bits
	r := Runner{Machines: pool}
	run := func() {
		if _, err := r.RunSeeded(context.Background(), s, 7); err != nil {
			t.Fatal(err)
		}
	}
	least := testing.AllocsPerRun(1, run)
	for i := 0; i < 2; i++ {
		least = min(least, testing.AllocsPerRun(1, run))
	}
	return least
}

// TestCellAllocsIndependentOfBits pins the simulator's per-transition
// path allocation-free: a pooled cell's allocation count is a fixed
// per-cell cost (machine acquire, agents, result slices) and must not
// grow with the number of transmitted bits — each bit is several PMU
// license transitions, so any per-transition garbage shows up 64× in
// the 1024-bit cell (16× in a baseline's 256-bit cell).
func TestCellAllocsIndependentOfBits(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1024-bit cells")
	}
	if raceEnabled {
		// sync.Pool drops a random share of Puts under the race
		// detector, so the pools behind encoding/json and fmt miss at
		// random and no two measurements agree.
		t.Skip("allocation counts are not reproducible under -race")
	}
	// A collection empties the sync.Pools behind fmt and encoding/json,
	// so a GC inside one measurement would add a few allocations there
	// that have nothing to do with the cell; hold collection off while
	// measuring (the cells allocate well under a megabyte in total).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pool := soc.NewPool()
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			small := cellAllocs(t, pool, c.spec, 16)
			large := cellAllocs(t, pool, c.spec, c.large)
			t.Logf("allocs per cell: 16 bits %.0f, %d bits %.0f", small, c.large, large)
			if large > small {
				t.Errorf("%d-bit cell allocates %.0f objects, 16-bit cell %.0f: per-cell allocations grow with bits", c.large, large, small)
			}
			if large >= 100 {
				t.Errorf("%d-bit cell allocates %.0f objects, want < 100", c.large, large)
			}
		})
	}
}
