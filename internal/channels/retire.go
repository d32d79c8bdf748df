package channels

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// spinLead is how long before a slot boundary a parked sender resumes
// spinning so it reaches the boundary on-core. It must be shorter than the
// gap between the end of a receiver measurement and the next slot start.
const spinLead = 2 * units.Microsecond

// contendTail is how long before the slot boundary the sender stops
// issuing contention bursts, bounding how far the last burst can overrun
// into a following 0-slot.
const contendTail = 3 * units.Microsecond

// NewRetire declares a retirement-unit contention channel between SMT
// siblings of core 0 (arXiv 2307.12486): the sender encodes 1 by running
// a scalar loop that competes for the core's shared uop delivery/retire
// bandwidth, and 0 by parking off-core. The receiver retires a fixed
// amount of scalar work each 20 µs slot and reads its own
// CPU_CLK_UNHALTED delta — contended slots take ~2× the cycles of
// uncontended ones. Decoding from a performance counter rather than
// rdtsc gives the family its own spy path: timer fuzzing does not degrade
// it. Scalar kernels carry no PHI current, so the paper's
// license/throttle machinery (and all three mitigations) never engage.
//
// SenderIters sizes each bit-1 contention burst; bursts repeat until the
// slot is nearly over, so occupancy does not depend on the clock
// frequency. Each burst must be shorter than contendTail even when SMT
// sharing halves its rate.
func NewRetire(m *soc.Machine) (*core.Protocol, error) {
	if m == nil {
		return nil, fmt.Errorf("channels: nil machine")
	}
	if m.Proc.SMTWays < 2 {
		return nil, fmt.Errorf("channels: retire channel needs an SMT processor; %s has none", m.Proc.Name)
	}
	return &core.Protocol{
		Name:          "retire",
		M:             m,
		Lead:          20 * units.Microsecond,
		Period:        20 * units.Microsecond,
		Settle:        50 * units.Microsecond,
		Sender:        core.Thread{Core: 0, Slot: 0},
		Receiver:      core.Thread{Core: 0, Slot: 1},
		Offset:        units.Microsecond,
		SenderIters:   16,
		ReceiverIters: 64,
		Send:          &contender{},
		Read:          &core.Loop{Kernel: isa.Loop64b, Unhalted: true},
		SlotBits:      1,
		Contrast:      "retirement contention",
	}, nil
}

// contender contends for the retire stage through a 1-slot and parks
// off-core through a 0-slot, resuming just before the next boundary to
// reach the spin loop.
type contender struct{}

func (*contender) Send(s *core.Slot) core.Op {
	if s.Sym == 0 {
		if s.Step == 0 {
			return core.Op{Idle: s.P.Period - spinLead}
		}
		return core.Op{}
	}
	if s.Step == 0 || s.Env.Now() < s.End.Add(-contendTail) {
		return core.Op{Kernel: &isa.Loop64b, Iters: s.P.SenderIters}
	}
	return core.Op{}
}
