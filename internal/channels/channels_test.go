package channels

import (
	"math/rand"
	"testing"

	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

func machine(t *testing.T, p model.Processor, freq units.Hertz, cores int, seed int64) *soc.Machine {
	t.Helper()
	m, err := soc.New(soc.Options{Processor: p, RequestedFreq: freq, Cores: cores, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomBits(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(2)
	}
	return out
}

func TestRetire(t *testing.T) {
	m := machine(t, model.CannonLake8121U(), 2.2*units.GHz, 1, 1)
	r, err := NewRetire(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Transmit([]int{1}); err == nil {
		t.Fatal("uncalibrated transmit accepted")
	}
	gap, err := r.Calibrate(6)
	if err != nil {
		t.Fatal(err)
	}
	// The contended measurement takes ~2× the uncontended cycles: the gap
	// is on the order of the uncontended reading itself (~6400 cycles).
	if gap < 3000 {
		t.Fatalf("contention gap %.0f cycles, want ≫0", gap)
	}
	res, err := r.Transmit(randomBits(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.BER != 0 {
		t.Fatalf("noise-free retire BER = %g (errors=%d)", res.BER, res.SymbolErrors)
	}
	// 1 bit per 20 µs slot = 50 kb/s raw.
	if res.ThroughputBPS < 45000 || res.ThroughputBPS > 55000 {
		t.Fatalf("throughput %.0f b/s, want ≈50000", res.ThroughputBPS)
	}
}

func TestRetireNeedsSMT(t *testing.T) {
	m := machine(t, model.CoffeeLake9700K(), 3.6*units.GHz, 2, 1)
	if _, err := NewRetire(m); err == nil {
		t.Fatal("retire channel on an SMT-less processor accepted")
	}
}

func TestRetireAcrossFrequencies(t *testing.T) {
	// The counter-based decode is frequency-independent: the same fixed
	// work contends the same way at any clock.
	for _, f := range []units.Hertz{1.4 * units.GHz, 3.5 * units.GHz} {
		m := machine(t, model.Haswell4770K(), f, 1, 1)
		r, err := NewRetire(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Calibrate(4); err != nil {
			t.Fatalf("at %v: %v", f, err)
		}
		res, err := r.Transmit(randomBits(32, 3))
		if err != nil {
			t.Fatalf("at %v: %v", f, err)
		}
		if res.BER != 0 {
			t.Fatalf("at %v: BER = %g", f, res.BER)
		}
	}
}

func TestClockMod(t *testing.T) {
	m := machine(t, model.CannonLake8121U(), 2.2*units.GHz, 2, 1)
	c, err := NewClockMod(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transmit([]int{1}); err == nil {
		t.Fatal("uncalibrated transmit accepted")
	}
	gap, err := c.Calibrate(4)
	if err != nil {
		t.Fatal(err)
	}
	// Quarter duty makes the fixed loop take 4× the TSC cycles: the gap
	// is ~3× the unmodulated reading (~20000 cycles).
	if gap < 10000 {
		t.Fatalf("duty gap %.0f cycles, want ≫0", gap)
	}
	res, err := c.Transmit(randomBits(32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BER != 0 {
		t.Fatalf("noise-free clockmod BER = %g (errors=%d)", res.BER, res.SymbolErrors)
	}
	// 1 bit per 120 µs window ≈ 8.3 kb/s raw.
	if res.ThroughputBPS < 8000 || res.ThroughputBPS > 8700 {
		t.Fatalf("throughput %.0f b/s, want ≈8333", res.ThroughputBPS)
	}
	// The run must leave the machine unmodulated for whatever comes next.
	for _, core := range m.Cores {
		if core.DutyCycle() != 1 {
			t.Fatalf("core %d left at duty %g", core.ID(), core.DutyCycle())
		}
	}
}

func TestClockModNeedsTwoCores(t *testing.T) {
	m := machine(t, model.CannonLake8121U(), 2.2*units.GHz, 1, 1)
	if _, err := NewClockMod(m); err == nil {
		t.Fatal("clockmod on one core accepted")
	}
}

func TestChannelsFasterThanDVFSBaselines(t *testing.T) {
	// The point of the family: duty actuation is orders of magnitude
	// faster than governor-driven DVFS (50 ms windows), and retirement
	// contention is faster still.
	if !(1.0/120e-6 > 1.0/50e-3 && 1.0/20e-6 > 1.0/120e-6) {
		t.Fatal("mechanism-latency ordering broken")
	}
}

func TestValidBitsRejectsJunk(t *testing.T) {
	r, err := NewRetire(machine(t, model.CannonLake8121U(), 2.2*units.GHz, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Calibrate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Transmit(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := r.Transmit([]int{0, 1, 2}); err == nil {
		t.Fatal("non-bit accepted")
	}
	if _, err := r.Transmit([]int{0, 1, 1}); err != nil {
		t.Fatalf("valid bits rejected: %v", err)
	}
}
