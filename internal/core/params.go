package core

import (
	"fmt"

	"ichannels/internal/model"
	"ichannels/internal/units"
)

// Params time-boxes one covert transaction. A transaction occupies one
// slot: the sender encodes a symbol as a PHI loop at the slot start, the
// receiver measures its own loop's elapsed cycles, and both sides then
// wait out the license reset-time so the next transaction starts from the
// baseline voltage (paper §4.1.2, §6.2).
type Params struct {
	Kind Kind

	// SlotPeriod is the full transaction cycle (send window + reset
	// time). It must exceed the last PHI touch in the slot by at least
	// the license hysteresis, or the voltage never resets and symbols
	// collapse.
	SlotPeriod units.Duration

	// SenderIters sizes the sender's PHI loop. It must keep the sender
	// executing until its voltage transition completes (otherwise the
	// receiver's request is serialized behind an unfinished ramp and
	// the level information degrades).
	SenderIters int64

	// ReceiverIters sizes the receiver's measurement loop. The loop must
	// outlast the longest throttling period it needs to witness.
	ReceiverIters int64

	// ReceiverOffset delays the receiver's measurement from the slot
	// start. Cross-core it must land the receiver's license request
	// while the sender's ramp is in flight (a few µs); on the same
	// thread it is unused (the measurement follows the send directly).
	ReceiverOffset units.Duration

	// SenderCore/SenderSlot and ReceiverCore/ReceiverSlot place the two
	// contexts (defaults depend on Kind).
	SenderCore, SenderSlot     int
	ReceiverCore, ReceiverSlot int
}

// DefaultParams returns transaction parameters tuned for a processor
// profile. The send window stays within ~60 µs and the slot covers the
// last PHI touch plus the license hysteresis, yielding ≈2.8–2.9 kb/s of
// raw channel capacity (paper §6.2 reports 2.9 kb/s with a 690 µs cycle).
func DefaultParams(kind Kind, p model.Processor) Params {
	// Sender loop: long enough at quarter rate to span the worst-case
	// ramp (~32 µs on Cannon Lake); 9 µs of full-rate work ≈ 36 µs
	// under throttle.
	// Receiver loop: ~7 µs of full-rate work so it outlasts 0.25·TPmax.
	pr := Params{
		Kind:          kind,
		SenderIters:   64, // 64 iters × 200 uops @1 UPC ≈ 9.1 µs full-rate at 1.4 GHz+
		ReceiverIters: 64,
	}
	switch kind {
	case SameThread:
		pr.SlotPeriod = p.LicenseHysteresis + 62*units.Microsecond
		pr.ReceiverCore, pr.ReceiverSlot = 0, 0
	case SMT:
		pr.SlotPeriod = p.LicenseHysteresis + 52*units.Microsecond
		pr.ReceiverIters = 160 // scalar loop at 2 UPC; must outlast the TP
		pr.ReceiverCore, pr.ReceiverSlot = 0, 1
	case CrossCore:
		pr.SlotPeriod = p.LicenseHysteresis + 58*units.Microsecond
		// The 128b_Heavy measurement loop must outlast the worst-case
		// serialized throttling period (~37 µs) or its reading
		// saturates at 4× its unthrottled length and the top symbols
		// collapse.
		pr.ReceiverIters = 150
		pr.ReceiverOffset = 2 * units.Microsecond
		pr.ReceiverCore, pr.ReceiverSlot = 1, 0
	}
	return pr
}

// Validate checks parameter consistency against a machine shape.
func (p Params) Validate(cores, smtWays int) error {
	if p.SlotPeriod <= 0 {
		return fmt.Errorf("core: slot period must be positive")
	}
	if p.SenderIters <= 0 || p.ReceiverIters <= 0 {
		return fmt.Errorf("core: iteration counts must be positive")
	}
	if p.ReceiverOffset < 0 {
		return fmt.Errorf("core: negative receiver offset")
	}
	check := func(role string, core, slot int) error {
		if core < 0 || core >= cores {
			return fmt.Errorf("core: %s core %d outside machine (%d cores)", role, core, cores)
		}
		if slot < 0 || slot >= smtWays {
			return fmt.Errorf("core: %s slot %d outside SMT ways (%d)", role, slot, smtWays)
		}
		return nil
	}
	if err := check("sender", p.SenderCore, p.SenderSlot); err != nil {
		return err
	}
	if err := check("receiver", p.ReceiverCore, p.ReceiverSlot); err != nil {
		return err
	}
	switch p.Kind {
	case SameThread:
		if p.SenderCore != p.ReceiverCore || p.SenderSlot != p.ReceiverSlot {
			return fmt.Errorf("core: IccThreadCovert requires sender and receiver on the same hardware thread")
		}
	case SMT:
		if p.SenderCore != p.ReceiverCore {
			return fmt.Errorf("core: IccSMTcovert requires sender and receiver on the same core")
		}
		if p.SenderSlot == p.ReceiverSlot {
			return fmt.Errorf("core: IccSMTcovert requires distinct SMT slots")
		}
		if smtWays < 2 {
			return fmt.Errorf("core: IccSMTcovert requires an SMT-capable processor")
		}
	case CrossCore:
		if p.SenderCore == p.ReceiverCore {
			return fmt.Errorf("core: IccCoresCovert requires distinct cores")
		}
	default:
		return fmt.Errorf("core: invalid channel kind %d", int(p.Kind))
	}
	return nil
}

// BitsPerSlot is the payload of one transaction.
const BitsPerSlot = 2
