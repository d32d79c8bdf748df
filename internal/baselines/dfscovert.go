package baselines

import (
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NewDFScovert declares Alagappan et al.'s governor-based covert channel:
// a kernel-privileged sender modulates the DVFS governor's target
// frequency between the base frequency and half of it (a sysfs write that
// the governor applies 10 ms later, on its sampling period), and the
// receiver on core 1 senses the package frequency with a timed loop 35 ms
// into each 50 ms window. Actuation latency limits it to ~20 b/s (paper
// Fig. 12(b)). The run ends by restoring the nominal operating point.
func NewDFScovert(m *soc.Machine) (*core.Protocol, error) {
	if err := needTwoCores(m, "DFScovert"); err != nil {
		return nil, err
	}
	base := m.Proc.BaseFreq
	governor := &core.DelayedWrite{
		Latency: 10 * units.Millisecond,
		Label:   "dfscovert.governor.apply",
		Values:  [2]float64{float64(base), float64(base / 2)},
		Apply:   func(m *soc.Machine, f float64) { m.PMU.SetRequestedFrequency(units.Hertz(f)) },
	}
	return &core.Protocol{
		Name:          "dfscovert",
		M:             m,
		Lead:          50 * units.Microsecond,
		Period:        50 * units.Millisecond,
		Settle:        500 * units.Microsecond,
		Restore:       governor.Restore,
		RestoreFor:    2 * units.Millisecond,
		Sender:        core.Thread{Core: 0, Slot: 0},
		Receiver:      core.Thread{Core: 1, Slot: 0},
		Offset:        35 * units.Millisecond,
		ReceiverIters: 2000,
		Send:          governor,
		Read:          &core.Loop{Kernel: isa.Loop64b},
		SlotBits:      1,
		Contrast:      "frequency",
	}, nil
}
