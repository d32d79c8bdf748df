package model

import (
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/units"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Haswell", "Core i7-9700K", "Cannon Lake"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("Pentium III"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestLookupMatchesByName checks the read-only topology against a
// constructed profile for every registered name, and that both reject
// an unknown name with the same error.
func TestLookupMatchesByName(t *testing.T) {
	for _, ctor := range registry {
		for _, name := range []string{ctor().Name, ctor().CodeName} {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Topology{p.CodeName, p.Cores, p.SMTWays}); topo != want {
				t.Errorf("Lookup(%q) = %+v, ByName gives %+v", name, topo, want)
			}
		}
	}
	_, err1 := Lookup("Pentium III")
	_, err2 := ByName("Pentium III")
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Errorf("unknown name: Lookup %v, ByName %v", err1, err2)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Lookup("Skylake-SP") }); n != 0 {
		t.Errorf("Lookup allocates %.0f objects, want 0", n)
	}
}

// TestByNameIsPrivate checks that ByName hands out a fresh profile: a
// caller adjusting its core weights must not change the next caller's.
func TestByNameIsPrivate(t *testing.T) {
	a, _ := ByName("Cannon Lake")
	a.Guardband.CoreWeights[0] = 42
	if b, _ := ByName("Cannon Lake"); b.Guardband.CoreWeights[0] == 42 {
		t.Error("ByName profiles share Guardband.CoreWeights")
	}
}

func TestPaperHardwareShapes(t *testing.T) {
	hsw, cfl, cnl := Haswell4770K(), CoffeeLake9700K(), CannonLake8121U()

	// Core/SMT topology from the paper's §5.1/§6.1.
	if cnl.Cores != 2 || cnl.SMTWays != 2 {
		t.Error("Cannon Lake is 2C/4T")
	}
	if cfl.SMTWays != 1 {
		t.Error("Coffee Lake i7-9700K has no SMT (the paper tests IccSMTcovert only on Cannon Lake)")
	}
	if hsw.SMTWays != 2 {
		t.Error("Haswell i7-4770K has SMT")
	}

	// Electrical limits from Fig. 7.
	if cfl.Limits.VccMax != 1.27 || cfl.Limits.IccMax != 100 {
		t.Error("Coffee Lake limits are Vccmax=1.27V / Iccmax=100A")
	}
	if cnl.Limits.VccMax != 1.15 || cnl.Limits.IccMax != 29 || cnl.Limits.TjMax != 100 {
		t.Error("Cannon Lake limits are Vccmax=1.15V / Iccmax=29A / Tjmax=100°C")
	}

	// Power gates: AVX gating arrived with Skylake (Fig. 8(b,c)).
	if p, _, _ := hsw.AVX256Gate.Gate(); p {
		t.Error("Haswell must not power-gate the AVX unit")
	}
	if p, _, _ := cfl.AVX256Gate.Gate(); !p {
		t.Error("Coffee Lake power-gates the AVX unit")
	}
	if p, _, _ := cnl.AVX512Gate.Gate(); !p {
		t.Error("Cannon Lake power-gates the AVX-512 unit")
	}
	if cfl.HasAVX512 {
		t.Error("i7-9700K has no AVX-512")
	}
	if !cnl.HasAVX512 {
		t.Error("i3-8121U has AVX-512")
	}

	// Reset-time (§4.1.2).
	for _, p := range All() {
		if p.LicenseHysteresis != 650*units.Microsecond {
			t.Errorf("%s: reset-time %v, want 650µs", p.Name, p.LicenseHysteresis)
		}
	}
}

func TestGuardbandCalibrationCoffeeLake(t *testing.T) {
	// Fig. 6(a): one core's AVX2 at 2 GHz steps Vcc by ≈8 mV; the second
	// core adds ≈9 mV.
	cfl := CoffeeLake9700K()
	one := cfl.Guardband.Single(isa.Vec256Heavy, 2*units.GHz).Millivolts()
	if one < 7.5 || one > 8.5 {
		t.Fatalf("single-core AVX2 guardband at 2 GHz = %.1f mV, want ≈8", one)
	}
	both := cfl.Guardband.Sum([]isa.Class{isa.Vec256Heavy, isa.Vec256Heavy}, 2*units.GHz).Millivolts()
	second := both - one
	if second < 8.5 || second > 9.5 {
		t.Fatalf("second core adds %.1f mV, want ≈9", second)
	}
}

func TestGuardbandCalibrationCannonLake(t *testing.T) {
	// Fig. 10(a): two cores need ≈1.8× the single-core guardband.
	cnl := CannonLake8121U()
	one := cnl.Guardband.Single(isa.Vec256Heavy, 1*units.GHz)
	two := cnl.Guardband.Sum([]isa.Class{isa.Vec256Heavy, isa.Vec256Heavy}, 1*units.GHz)
	if r := float64(two / one); r < 1.75 || r > 1.85 {
		t.Fatalf("two-core ratio %.2f, want ≈1.8", r)
	}
}

func TestVFCurveCalibration(t *testing.T) {
	// Fig. 7(a) desktop: AVX2 voltage demand exceeds Vccmax at 4.9 GHz
	// but not at 4.8 GHz.
	cfl := CoffeeLake9700K()
	demand := func(f units.Hertz) units.Volt {
		return cfl.VF.Voltage(f) + cfl.Guardband.Single(isa.Vec256Heavy, f)
	}
	if demand(4.9*units.GHz) <= cfl.Limits.VccMax {
		t.Fatal("AVX2 at 4.9 GHz must violate Vccmax")
	}
	if demand(4.8*units.GHz) > cfl.Limits.VccMax {
		t.Fatal("AVX2 at 4.8 GHz must fit under Vccmax")
	}
	if cfl.VF.Voltage(4.9*units.GHz) > cfl.Limits.VccMax {
		t.Fatal("non-AVX at 4.9 GHz must fit under Vccmax")
	}
}

func TestIccCalibrationCannonLake(t *testing.T) {
	// Fig. 7(a) mobile: two cores of AVX2 at 3.1 GHz draw over Iccmax
	// (29 A); at 2.2 GHz they fit comfortably.
	cnl := CannonLake8121U()
	icc := func(f units.Hertz) float64 {
		v := cnl.VF.Voltage(f) + cnl.Guardband.Sum([]isa.Class{isa.Vec256Heavy, isa.Vec256Heavy}, f)
		dyn := 2 * cnl.Cdyn.PerClass[isa.Vec256Heavy] * float64(v) * float64(f)
		return dyn + float64(cnl.Leakage.Current(v, 70))
	}
	if icc(3.1*units.GHz) <= 29 {
		t.Fatalf("2×AVX2 at 3.1 GHz draws %.1f A, must exceed 29", icc(3.1*units.GHz))
	}
	if icc(2.2*units.GHz) > 29 {
		t.Fatalf("2×AVX2 at 2.2 GHz draws %.1f A, must fit under 29", icc(2.2*units.GHz))
	}
}

func TestFIVRFasterThanMBVR(t *testing.T) {
	// Fig. 8(a): Haswell's FIVR ramps faster → shorter TP.
	hsw, cnl := Haswell4770K(), CannonLake8121U()
	if hsw.VR.SlewUp <= cnl.VR.SlewUp {
		t.Fatal("FIVR must slew faster than MBVR")
	}
}
