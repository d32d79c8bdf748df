package channels

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NewClockMod declares a clock-modulation covert channel
// (arXiv 2404.05823): the sender programs the package duty cycle
// (IA32_CLOCK_MODULATION T-states) once per 120 µs bit window — 1 gates
// the front-end to quarter duty, 0 restores full delivery — and the
// receiver times a fixed scalar loop 10 µs into each window. Unlike the
// DVFS carriers (TurboCC, DFScovert) duty changes take effect with a
// 2 µs MSR-write latency rather than governor sampling plus PLL relock,
// so the bit period is microseconds, not tens of milliseconds; the decode
// is the same windowed threshold those baselines use. The sender is a
// software actor on core 0 with no loop to size; the receiver times on
// core 1 (duty modulation is package-wide, so any second core works), and
// the run ends by restoring full duty.
func NewClockMod(m *soc.Machine) (*core.Protocol, error) {
	if m == nil {
		return nil, fmt.Errorf("channels: nil machine")
	}
	if len(m.Cores) < 2 {
		return nil, fmt.Errorf("channels: clockmod channel needs two cores")
	}
	duty := &core.DelayedWrite{
		Latency: 2 * units.Microsecond,
		Label:   "clockmod.duty.apply",
		Values:  [2]float64{1, 0.25},
		Apply:   func(m *soc.Machine, d float64) { m.PMU.SetClockDuty(d) },
	}
	return &core.Protocol{
		Name:          "clockmod",
		M:             m,
		Lead:          50 * units.Microsecond,
		Period:        120 * units.Microsecond,
		Settle:        100 * units.Microsecond,
		Restore:       duty.Restore,
		RestoreFor:    100 * units.Microsecond,
		Sender:        core.Thread{Core: 0, Slot: 0},
		Receiver:      core.Thread{Core: 1, Slot: 0},
		Offset:        10 * units.Microsecond,
		ReceiverIters: 200,
		Send:          duty,
		Read:          &core.Loop{Kernel: isa.Loop64b},
		SlotBits:      1,
		Contrast:      "duty-cycle",
	}, nil
}
