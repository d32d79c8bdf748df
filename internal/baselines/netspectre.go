package baselines

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NewNetSpectre declares the paper's comparison point for
// IccThreadCovert, the NetSpectre AVX-based gadget (§3, §6.2), on core 0
// of m. The sender leaks one bit per transaction by either executing an
// AVX2 burst (bit 1) or not (bit 0); on the same thread the receiver then
// times its own AVX2 loop. A set bit leaves the voltage pre-ramped, so the
// measurement is fast; a clear bit makes the measurement pay the full
// throttling period — the channel decodes inverted. Single-level decoding
// gives one bit per reset-time cycle, half of IccThreadCovert's rate.
//
// SenderIters sizes the bit-1 burst; it must outlast the voltage ramp so
// the later measurement sees a settled guardband.
func NewNetSpectre(m *soc.Machine) (*core.Protocol, error) {
	if m == nil {
		return nil, fmt.Errorf("baselines: nil machine")
	}
	return &core.Protocol{
		Name:          "netspectre",
		M:             m,
		Lead:          20 * units.Microsecond,
		Period:        m.Proc.LicenseHysteresis + 40*units.Microsecond,
		Settle:        100 * units.Microsecond,
		SenderIters:   64,
		ReceiverIters: 48,
		Send:          &core.Burst{Kernel: isa.Loop256Heavy},
		Read:          &core.Loop{Kernel: isa.Loop256Heavy},
		SlotBits:      1,
		Inverted:      true,
		Contrast:      "throttle",
	}, nil
}
