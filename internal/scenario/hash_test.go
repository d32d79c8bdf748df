package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// oracleHash is Hash's original definition, the sha256 of
// json.Marshal of the normalized spec without Name and Seed. Corpora
// are keyed by it, so Hash must agree with it on every spec.
func oracleHash(s Scenario) string {
	n := s.Normalized()
	n.Name = ""
	n.Seed = 0
	b, err := json.Marshal(n)
	if err != nil {
		panic("scenario: hash marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkCanonicalJSON fails unless appendJSON encodes s exactly as
// json.Marshal does.
func checkCanonicalJSON(t *testing.T, s Scenario) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if got := s.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendJSON differs from json.Marshal:\ngot    %s\noracle %s", got, want)
	}
}

// FuzzScenarioCanonicalJSON: for arbitrary specs, set or not, the
// hand-written encoding equals json.Marshal and Hash equals the
// oracle.
func FuzzScenarioCanonicalJSON(f *testing.F) {
	f.Add("", "channel", "Cannon Lake", "cores", "", "", "", "", 64, int64(0),
		false, 0.0, 0.0, int64(0), false, 0, false, 0.0, int64(0), int64(0), 0.0, 0.0, 0, 0)
	f.Add(`<>&"\`, "CHANNEL ", "Core i3-8121U", "smt", "turbocc", "Percore", "fig13", "a b\xff", 0, int64(-7),
		true, 0.0, 0.0, int64(0), true, 0, true, 0.0, int64(0), int64(0), 0.0, 0.0, 0, 0)
	f.Add("n \x00", "mitigation-eval", "Skylake-SP", "retire", "", "percore-vr", "", "", 1024, int64(math.MaxInt64),
		true, 2000.0, 1e-7, int64(40), true, 7, true, 1e21, int64(-3), int64(1<<40), 5e-324, math.MaxFloat64, 2, 12)
	f.Add("", "baseline", "", "", "netspectre", "", "", "payload", 8, int64(1),
		true, 0.5, 123456789.125, int64(-1), false, 0, true, 0.000001, int64(0), int64(9), -0.0, 1e-6, -1, 0)
	f.Fuzz(func(t *testing.T, name, role, proc, kind, baseline, mitigation, experiment, payload string,
		bits int, seed int64,
		hasNoise bool, irq, ctx float64, jitter int64,
		hasCoding bool, depth int,
		hasParams bool, slot float64, sender, receiver int64, offset, freq float64, cores, calib int) {
		for _, v := range []float64{irq, ctx, slot, offset, freq} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("json.Marshal has no encoding for non-finite floats")
			}
		}
		s := Scenario{
			Name: name, Role: role, Processor: proc, Kind: kind, Baseline: baseline,
			Mitigation: mitigation, Experiment: experiment, Bits: bits, Payload: payload, Seed: seed,
		}
		if hasNoise {
			s.Noise = &Noise{InterruptsPerSec: irq, CtxSwitchesPerSec: ctx, TSCJitterCycles: jitter}
		}
		if hasCoding {
			s.Coding = &Coding{InterleaveDepth: depth}
		}
		if hasParams {
			s.Params = &Params{SlotPeriodUS: slot, SenderIters: sender, ReceiverIters: receiver,
				ReceiverOffsetUS: offset, FreqGHz: freq, Cores: cores, CalibReps: calib}
		}
		checkCanonicalJSON(t, s)
		checkCanonicalJSON(t, s.Normalized())
		if got, want := s.Hash(), oracleHash(s); got != want {
			t.Fatalf("Hash = %s, oracle %s", got, want)
		}
	})
}

// TestHashMatchesOracleOnSpecs: Hash equals the oracle for every
// scenario and every sweep cell of the checked-in example specs and
// the performance harness's mitigation grid.
func TestHashMatchesOracleOnSpecs(t *testing.T) {
	var specs []Scenario
	scen, err := filepath.Glob("../../examples/scenarios/specs/*.json")
	if err != nil || len(scen) == 0 {
		t.Fatalf("no scenario specs: %v", err)
	}
	for _, path := range scen {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		parsed, _, err := ParseSpecs(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs = append(specs, parsed...)
	}
	sweeps, err := filepath.Glob("../../examples/sweeps/specs/*.json")
	if err != nil || len(sweeps) == 0 {
		t.Fatalf("no sweep specs: %v", err)
	}
	grids := []string{mitigationGrid}
	for _, path := range sweeps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, string(data))
	}
	for _, g := range grids {
		sw, err := ParseSweep([]byte(g))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := sw.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			specs = append(specs, c.Scenario)
		}
	}
	for _, s := range specs {
		if got, want := s.Hash(), oracleHash(s); got != want {
			t.Errorf("%s: Hash %s, oracle %s", s.Describe(), got, want)
		}
	}
	if len(specs) < 300 {
		t.Errorf("checked %d specs; the examples and the grid hold more", len(specs))
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf in any float field are a
// validation error naming the field, for a scenario and for a sweep's
// object axis, never a panic.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		set   func(*Scenario, float64)
	}{
		{"noise.interrupts_per_sec", func(s *Scenario, v float64) { s.Noise = &Noise{InterruptsPerSec: v} }},
		{"noise.ctx_switches_per_sec", func(s *Scenario, v float64) { s.Noise = &Noise{CtxSwitchesPerSec: v} }},
		{"params.slot_period_us", func(s *Scenario, v float64) { s.Params = &Params{SlotPeriodUS: v} }},
		{"params.receiver_offset_us", func(s *Scenario, v float64) { s.Params = &Params{ReceiverOffsetUS: v} }},
		{"params.freq_ghz", func(s *Scenario, v float64) { s.Params = &Params{FreqGHz: v} }},
	}
	for _, tc := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Scenario{Role: RoleChannel, Bits: 16}
			tc.set(&s, v)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field+" must be a finite number") {
				t.Errorf("%s=%v: Validate = %v", tc.field, v, err)
			}
			sw := Sweep{Base: Scenario{Role: RoleChannel, Bits: 16}}
			if s.Noise != nil {
				sw.Axes.Noise = []Noise{*s.Noise}
			} else {
				sw.Axes.Params = []Params{*s.Params}
			}
			if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("sweep axis %s=%v: Validate = %v", tc.field, v, err)
			}
		}
	}
}
