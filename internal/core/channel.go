package core

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NewProtocol declares one of the paper's multi-level channels on a
// machine: each slot the sender runs the symbol's PHI loop at the slot
// start (wall-clock sync, paper §4.3.3) and the receiver times the kind's
// measurement loop with rdtsc. It validates the placement first.
func NewProtocol(m *soc.Machine, p Params) (*Protocol, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	if err := p.Validate(len(m.Cores), m.Proc.SMTWays); err != nil {
		return nil, err
	}
	return &Protocol{
		Name:          "ichannels",
		M:             m,
		Lead:          20 * units.Microsecond,
		Period:        p.SlotPeriod,
		Settle:        100 * units.Microsecond,
		Sender:        Thread{p.SenderCore, p.SenderSlot},
		Receiver:      Thread{p.ReceiverCore, p.ReceiverSlot},
		Offset:        p.ReceiverOffset,
		SenderIters:   p.SenderIters,
		ReceiverIters: p.ReceiverIters,
		Send:          &phiSender{},
		Read:          &Loop{Kernel: p.Kind.ReceiverKernel()},
		SlotBits:      BitsPerSlot,
	}, nil
}

// phiSender runs the symbol's PHI loop for the protocol's SenderIters.
type phiSender struct{}

// phiKernels holds each symbol's sender kernel, so a step can point at it.
var phiKernels = func() (k [NumSymbols]isa.Kernel) {
	for s := range k {
		k[s] = Symbol(s).Kernel()
	}
	return k
}()

func (*phiSender) Send(s *Slot) Op {
	if s.Step > 0 {
		return Op{}
	}
	return Op{Kernel: &phiKernels[s.Sym], Iters: s.P.SenderIters}
}

// Channel is one configured IChannels covert channel on a machine: the
// multi-level protocol, whose calibration is a Calibration.
type Channel struct {
	proto *Protocol
}

// New validates the placement against the machine and returns a channel.
func New(m *soc.Machine, p Params) (*Channel, error) {
	proto, err := NewProtocol(m, p)
	if err != nil {
		return nil, err
	}
	return &Channel{proto: proto}, nil
}

// Calibration returns the current calibration (nil before Calibrate).
func (c *Channel) Calibration() *Calibration {
	cal, _ := c.proto.dec.(*Calibration)
	return cal
}

// Calibrate learns the decision thresholds by transmitting a known
// round-robin symbol pattern perSymbol times each and clustering the
// receiver's measurements.
func (c *Channel) Calibrate(perSymbol int) (*Calibration, error) {
	if _, err := c.proto.Calibrate(perSymbol); err != nil {
		return nil, err
	}
	return c.Calibration(), nil
}

// RunSymbols performs one transaction per symbol and returns the
// receiver's raw measurements (TSC cycles) in slot order. Experiments use
// it directly (the Fig. 13 distributions).
func (c *Channel) RunSymbols(schedule []Symbol) ([]float64, error) {
	for _, s := range schedule {
		if !s.Valid() {
			return nil, fmt.Errorf("core: invalid symbol %d in schedule", int(s))
		}
	}
	return c.proto.run(BitsFromSymbols(schedule))
}

// Transmit sends a bit stream (even length) over the channel and decodes
// it with the current calibration.
func (c *Channel) Transmit(bits []int) (*Result, error) { return c.proto.Transmit(bits) }
