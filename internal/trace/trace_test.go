package trace

import (
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

func machine(t *testing.T) *soc.Machine {
	t.Helper()
	m, err := soc.New(soc.Options{Processor: model.CannonLake8121U(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRecorderValidation(t *testing.T) {
	m := machine(t)
	if _, err := NewRecorder(nil, units.Microsecond); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := NewRecorder(m, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestRecorderSamplesAtInterval(t *testing.T) {
	m := machine(t)
	rec, err := NewRecorder(m, 10*units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	m.RunFor(100 * units.Microsecond)
	rec.Stop()
	m.RunFor(100 * units.Microsecond)
	// [0, 100] µs inclusive at 10 µs → 11 samples; Stop must hold.
	if rec.Len() != 11 {
		t.Fatalf("samples = %d, want 11", rec.Len())
	}
	for i, s := range rec.Samples() {
		if want := units.Time(i) * units.Time(10*units.Microsecond); s.T != want {
			t.Fatalf("sample %d at %v, want %v", i, s.T, want)
		}
	}
}

func TestRecorderStartIdempotent(t *testing.T) {
	m := machine(t)
	rec, _ := NewRecorder(m, 10*units.Microsecond)
	rec.Start()
	rec.Start() // must not double-sample
	m.RunFor(20 * units.Microsecond)
	rec.Stop()
	if rec.Len() != 3 {
		t.Fatalf("samples = %d, want 3", rec.Len())
	}
}

func TestVccDeltaTracksGuardband(t *testing.T) {
	m := machine(t)
	rec, _ := NewRecorder(m, 2*units.Microsecond)
	rec.Start()
	agent := soc.AgentFunc{AgentName: "w", Fn: func(env *soc.Env, prev *soc.Result) soc.Action {
		if prev == nil {
			return soc.Exec(isa.Loop256Heavy, 200)
		}
		return soc.Stop()
	}}
	if _, err := m.Bind(0, 0, agent); err != nil {
		t.Fatal(err)
	}
	m.RunFor(100 * units.Microsecond)
	rec.Stop()
	// 256b_Heavy at 2.2 GHz: +18.7 mV guardband.
	max := rec.MaxVccDelta()
	if max < 18 || max > 20 {
		t.Fatalf("max Vcc delta = %.1f mV, want ≈18.7", max)
	}
	// The first sample is the baseline → delta 0.
	if rec.VccDelta()[0] != 0 {
		t.Fatal("first delta must be zero")
	}
}

func TestEmptyRecorderHelpers(t *testing.T) {
	m := machine(t)
	rec, _ := NewRecorder(m, units.Microsecond)
	if rec.VccDelta() != nil {
		t.Fatal("empty delta must be nil")
	}
	if rec.MaxVccDelta() != 0 {
		t.Fatal("empty max delta must be 0")
	}
}
