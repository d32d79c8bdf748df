package core

import (
	"bytes"
	"testing"

	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

func TestTransmitFrameCleanChannel(t *testing.T) {
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 21)
	ch, err := New(m, DefaultParams(SMT, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	payload := []byte("exfil")
	got, attempts, res, err := ch.TransmitFrame(payload, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("clean channel needed %d attempts", attempts)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
	if res.BER != 0 {
		t.Fatalf("BER %g", res.BER)
	}
}

func TestTransmitFrameRetriesUnderNoise(t *testing.T) {
	proc := model.CannonLake8121U()
	m, err := soc.New(soc.Options{
		Processor:       proc,
		RequestedFreq:   2.2 * units.GHz,
		Noise:           soc.WithRates(3000, 600),
		TSCJitterCycles: 250,
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(m, DefaultParams(SameThread, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(8); err != nil {
		t.Fatal(err)
	}
	payload := []byte("key=42")
	got, attempts, _, err := ch.TransmitFrame(payload, 7, 8)
	if err != nil {
		t.Fatalf("unrecoverable after %d attempts: %v", attempts, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

func TestCapacityEstimate(t *testing.T) {
	// Error-free uniform transmission → ≈2 bits/symbol mutual info.
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 22)
	ch, err := New(m, DefaultParams(CrossCore, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	// Cycle through all four symbols uniformly: 00, 01, 10, 11, ...
	bits := make([]int, 64)
	for k := 0; k < len(bits)/2; k++ {
		bits[2*k] = (k >> 1) & 1
		bits[2*k+1] = k & 1
	}
	res, err := ch.Transmit(bits)
	if err != nil {
		t.Fatal(err)
	}
	cap2 := res.CapacityBitsPerSymbol()
	if cap2 < 1.9 || cap2 > 2.0 {
		t.Fatalf("capacity %.3f bits/symbol, want ≈2", cap2)
	}
	// ≈2.8 kb/s channel capacity (the paper's ~3 kb/s headline).
	if bps := res.CapacityBPS(); bps < 2600 || bps > 3000 {
		t.Fatalf("capacity %.0f b/s", bps)
	}
}

func TestConfusionDiagonalWhenClean(t *testing.T) {
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 23)
	ch, err := New(m, DefaultParams(SameThread, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	res, err := ch.Transmit([]int{0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	m2 := res.Confusion()
	for s := 0; s < NumSymbols; s++ {
		for d := 0; d < NumSymbols; d++ {
			if s != d && m2[s][d] != 0 {
				t.Fatalf("off-diagonal confusion[%d][%d] = %d", s, d, m2[s][d])
			}
		}
	}
}

func TestEmptyResultCapacity(t *testing.T) {
	var r Result
	if r.CapacityBitsPerSymbol() != 0 || r.CapacityBPS() != 0 {
		t.Fatal("empty result must have zero capacity")
	}
}
