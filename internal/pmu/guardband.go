// Package pmu implements the processor's power management unit: the central
// PMU that owns voltage guardbands, license grants, the serialized voltage
// transition queue (the root cause of Multi-Throttling-Cores), the 650 µs
// license hysteresis ("reset-time"), and the Iccmax/Vccmax protection that
// reduces frequency at Turbo (paper §2, §5).
package pmu

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/units"
)

// GuardbandTable maps instruction-intensity classes to the extra voltage
// guardband (ΔV) the PMU must program above the V/F-curve base voltage
// before instructions of that class may run at full rate. Per the paper's
// Equation 1, ΔV scales linearly with frequency, so entries are expressed
// in volts per GHz. Contributions from multiple cores combine with
// empirically calibrated interaction weights (Fig. 6(a): the second Coffee
// Lake core adds slightly more than the first; Fig. 10(a): two Cannon Lake
// cores need ≈1.8× the single-core guardband).
type GuardbandTable struct {
	// PerClassPerGHz is the single-core power-virus guardband of each
	// class at 1 GHz. Entry [isa.Scalar64] must be zero (scalar code is
	// the baseline) and entries must be non-decreasing in class.
	PerClassPerGHz [isa.NumClasses]units.Volt

	// CoreWeights scales the i-th largest per-core contribution when
	// multiple cores hold PHI licenses simultaneously. CoreWeights[0]
	// must be 1. Cores beyond the table reuse the last weight.
	CoreWeights []float64
}

// Validate checks the table invariants.
func (g *GuardbandTable) Validate() error {
	if g.PerClassPerGHz[isa.Scalar64] != 0 {
		return fmt.Errorf("pmu: scalar guardband must be zero, got %v", g.PerClassPerGHz[isa.Scalar64])
	}
	for c := 1; c < isa.NumClasses; c++ {
		if g.PerClassPerGHz[c] < g.PerClassPerGHz[c-1] {
			return fmt.Errorf("pmu: guardband must be non-decreasing by class; %s (%v) < %s (%v)",
				isa.Class(c), g.PerClassPerGHz[c], isa.Class(c-1), g.PerClassPerGHz[c-1])
		}
	}
	if g.PerClassPerGHz[isa.NumClasses-1] <= 0 {
		return fmt.Errorf("pmu: top guardband must be positive")
	}
	if len(g.CoreWeights) == 0 {
		return fmt.Errorf("pmu: at least one core weight required")
	}
	if g.CoreWeights[0] != 1 {
		return fmt.Errorf("pmu: first core weight must be 1, got %g", g.CoreWeights[0])
	}
	for i, w := range g.CoreWeights {
		if w <= 0 {
			return fmt.Errorf("pmu: core weight %d must be positive, got %g", i, w)
		}
	}
	return nil
}

// Single returns the guardband for one core holding a license of class c
// at frequency f.
func (g *GuardbandTable) Single(c isa.Class, f units.Hertz) units.Volt {
	if !c.Valid() {
		panic(fmt.Sprintf("pmu: invalid class %d", int(c)))
	}
	return g.PerClassPerGHz[c] * units.Volt(f.GHzF())
}

// Sum combines the guardbands of all cores' licenses at frequency f. The
// largest contribution gets weight CoreWeights[0] (=1), the next largest
// CoreWeights[1], and so on. It runs on every voltage retarget, so the
// descending order is built by insertion into a stack buffer instead of
// a heap-allocated sort (core counts are small), and the table is taken
// by pointer rather than copied per call.
func (g *GuardbandTable) Sum(classes []isa.Class, f units.Hertz) units.Volt {
	var buf [32]float64
	contributions := buf[:0]
	if len(classes) > len(buf) {
		contributions = make([]float64, 0, len(classes))
	}
	for _, c := range classes {
		v := float64(g.Single(c, f))
		if v <= 0 {
			continue
		}
		// Insert v keeping contributions sorted descending.
		i := len(contributions)
		contributions = append(contributions, v)
		for i > 0 && contributions[i-1] < v {
			contributions[i] = contributions[i-1]
			i--
		}
		contributions[i] = v
	}
	var total float64
	for i, v := range contributions {
		total += v * g.weight(i)
	}
	return units.Volt(total)
}

// Max returns the worst-case guardband: every one of n cores running the
// highest-intensity power virus. Secure mode (mitigation 3) pins the
// voltage here.
//
// It equals Sum over n top-class licenses (n equal contributions, so the
// descending order is the input order) without building the slice:
// secure mode evaluates it at every frequency step it tries.
func (g *GuardbandTable) Max(n int, f units.Hertz) units.Volt {
	v := float64(g.Single(isa.Class(isa.NumClasses-1), f))
	if v <= 0 {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		total += v * g.weight(i)
	}
	return units.Volt(total)
}

func (g *GuardbandTable) weight(i int) float64 {
	if i >= len(g.CoreWeights) {
		return g.CoreWeights[len(g.CoreWeights)-1]
	}
	return g.CoreWeights[i]
}
