package baselines

import (
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NewTurboCC declares Kalmbach et al.'s cross-core frequency covert
// channel: the sender on core 0 executes PHIs at Turbo so the
// Iccmax/Vccmax protection drops the (package-wide) clock; the receiver
// on core 1 times a scalar loop mid-window to detect the lower frequency,
// and spins between measurements so the package's active-core count —
// and with it the current budget — stays constant. The bit period is
// dominated by the PMU's slow frequency-restore hysteresis (tens of
// milliseconds), which is why the paper measures TurboCC at 61 b/s —
// nearly 50× below IChannels (§6.2).
//
// The machine must be configured at a Turbo operating point where the
// sender's PHI class trips a protection limit (e.g. Cannon Lake at
// 3.1 GHz with a 512b_Heavy sender).
func NewTurboCC(m *soc.Machine) (*core.Protocol, error) {
	if err := needTwoCores(m, "TurboCC"); err != nil {
		return nil, err
	}
	k := isa.Loop512Heavy
	if !m.Proc.HasAVX512 {
		k = isa.Loop256Heavy
	}
	return &core.Protocol{
		Name:   "turbocc",
		M:      m,
		Lead:   50 * units.Microsecond,
		Period: m.Proc.FreqRestoreDelay + 1400*units.Microsecond,
		Settle: 500 * units.Microsecond,
		// Sender on core 0, receiver on core 1; the measurement lands
		// after the downshift has surely happened but before restoration.
		Sender:        core.Thread{Core: 0, Slot: 0},
		Receiver:      core.Thread{Core: 1, Slot: 0},
		Offset:        4 * units.Millisecond,
		SenderIters:   12000, // ≈1.7 ms of 512b_Heavy at ~1 UPC / 2.9 GHz
		ReceiverIters: 2000,  // ≈130 µs scalar timing loop
		Send:          &core.Burst{Kernel: k},
		Read:          &core.Loop{Kernel: isa.Loop64b},
		SlotBits:      1,
		Contrast:      "Turbo-frequency",
	}, nil
}
