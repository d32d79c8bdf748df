package core

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

// Thread places one side of a channel on a hardware thread.
type Thread struct{ Core, Slot int }

// Protocol is one covert channel on one machine. Every channel in this
// repository has the same slot shape: the sender modulates a shared
// resource once per slot, the receiver takes one reading per slot, and a
// calibrated decoder maps readings to symbols. A family declares only its
// physics — the slot schedule, the sender's per-slot step, the receiver's
// per-slot reading and its decoder rule — and the protocol does the rest:
// one agent implementation runs both sides, one runner binds them, runs
// the machine and checks the reading count, and Calibrate and Transmit
// are the same for every family.
type Protocol struct {
	// Name labels the protocol's agents and its errors.
	Name string
	// M is the machine the channel runs on.
	M *soc.Machine

	// The slot schedule: the first slot starts Lead after a run begins,
	// each slot lasts Period, and the run goes on for Settle after the
	// last slot ends. Restore, when set, then puts the machine back in
	// its resting state and the run goes on for RestoreFor more.
	Lead, Period, Settle units.Duration
	Restore              func(m *soc.Machine)
	RestoreFor           units.Duration

	// Sender and Receiver place the two sides. When they name the same
	// hardware thread one agent sends and then reads in each slot;
	// otherwise the receiver starts its reading Offset after the slot
	// start.
	Sender, Receiver Thread
	Offset           units.Duration
	// SenderIters and ReceiverIters size the sender's and the receiver's
	// loops; each family's Send and Read say what a loop is.
	SenderIters, ReceiverIters int64

	// Send is the sender's per-slot step and Read the receiver's
	// per-slot reading.
	Send Sender
	Read Reader

	// SlotBits is the payload of one slot. The multi-level channels
	// carry BitsPerSlot and decode with a Calibration; the others carry
	// one bit and decode with a Threshold midway between the calibrated
	// means of their 1- and 0-readings. Inverted declares a 1-bit
	// channel whose 1 reads lower than its 0, and Contrast names the
	// physical difference its calibration must find.
	SlotBits int
	Inverted bool
	Contrast string

	dec Decoder
}

// Slot is an agent's place in a run, as a family's steps see it.
type Slot struct {
	P   *Protocol
	Env *soc.Env
	// Sym is the symbol the slot carries.
	Sym Symbol
	// Step counts the actions this side has already taken in the slot.
	Step int
	// End is when the slot ends.
	End units.Time
	// Reading is where a Reader leaves the slot's reading.
	Reading float64
}

// Op is a step's next action: run Kernel for Iters, or, with no Kernel,
// park off-core for Idle. The zero Op ends the step's part of the slot.
// It is a few words, so it returns in registers where a soc.Action would
// be copied through memory on every step.
type Op struct {
	Kernel *isa.Kernel
	Iters  int64
	Idle   units.Duration
}

// Sender is a family's per-slot sender step. The runner calls Send once
// the sender has spun to the slot start, and again each time the Op it
// returned completes, until Send returns the zero Op.
type Sender interface {
	Send(s *Slot) Op
}

// Reader is a family's per-slot receiver reading. The runner calls Read
// once the receiver is in place for the slot — after the spin to its
// reading offset, or after the send on a one-thread channel — and again
// each time the Op it returned completes (prev is its result), until
// Read sets s.Reading and returns the zero Op.
type Reader interface {
	Read(s *Slot, prev *soc.Result) Op
}

// Decoder maps one slot reading to the symbol it carries.
type Decoder interface {
	Decode(reading float64) Symbol
}

// Loop is the reading most channels take: one run of Kernel for the
// protocol's ReceiverIters, read as its rdtsc-elapsed cycles or, with
// Unhalted, as the thread's own unhalted-cycle count (a counter, so TSC
// jitter never touches it).
type Loop struct {
	Kernel   isa.Kernel
	Unhalted bool
}

// Read implements Reader.
func (l *Loop) Read(s *Slot, prev *soc.Result) Op {
	if s.Step == 0 {
		return Op{Kernel: &l.Kernel, Iters: s.P.ReceiverIters}
	}
	if l.Unhalted {
		s.Reading = prev.Counters.UnhaltedCycles
	} else {
		s.Reading = float64(prev.ElapsedTSC())
	}
	return Op{}
}

// Burst sends a 1 by running Kernel for the protocol's SenderIters at the
// slot start and a 0 by doing nothing.
type Burst struct{ Kernel isa.Kernel }

// Send implements Sender.
func (b *Burst) Send(s *Slot) Op {
	if s.Step > 0 || s.Sym == 0 {
		return Op{}
	}
	return Op{Kernel: &b.Kernel, Iters: s.P.SenderIters}
}

// DelayedWrite is the sender of a channel whose sender is a software
// actor: at each slot start it writes Values[sym] to a machine control,
// and the write takes effect Latency later through Apply. Writes land in
// the order they were issued, so the values in flight wait in a FIFO that
// one bound callback drains, keeping each slot free of allocations.
type DelayedWrite struct {
	Latency units.Duration
	// Label names the write's event.
	Label string
	// Values holds the value written for a 0 and for a 1; Values[0] is
	// the resting state Restore writes back.
	Values [2]float64
	Apply  func(m *soc.Machine, v float64)

	m       *soc.Machine
	pending []float64        // values written but not yet applied, oldest first
	apply   func(units.Time) // applyOldest, bound once
}

// Send implements Sender.
func (w *DelayedWrite) Send(s *Slot) Op {
	if w.apply == nil {
		w.m = s.P.M
		w.apply = w.applyOldest
	}
	w.pending = append(w.pending, w.Values[s.Sym])
	s.Env.M.Q.After(w.Latency, w.Label, w.apply)
	return Op{}
}

func (w *DelayedWrite) applyOldest(units.Time) {
	v := w.pending[0]
	n := copy(w.pending, w.pending[1:])
	w.pending = w.pending[:n]
	w.Apply(w.m, v)
}

// Restore writes the resting value at once, for whatever runs next.
func (w *DelayedWrite) Restore(m *soc.Machine) { w.Apply(m, w.Values[0]) }

// agentPhase is an agent's position in the slot cycle.
type agentPhase int

const (
	phaseSpin agentPhase = iota
	phaseSend
	phaseRead
)

// slotAgent is the one soc.Agent under every channel: each slot it spins
// to the slot start (plus the reading offset on a receive-only thread),
// then runs the family's send step, its reading, or both in that order.
type slotAgent struct {
	p          *Protocol
	base       units.Time
	bits       []int // SlotBits per slot
	slots      int
	send, read bool
	idx        int
	phase      agentPhase
	s          Slot
	readings   []float64
}

func (a *slotAgent) Name() string { return a.p.Name }

func (a *slotAgent) slotStart(k int) units.Time {
	return a.base.Add(units.Duration(k) * a.p.Period)
}

func (a *slotAgent) Next(env *soc.Env, prev *soc.Result) soc.Action {
	// One return per action kind, built from the small Op, keeps the
	// agent to a single soc.Action construction per step.
	op, until, stop := a.next(env, prev)
	switch {
	case stop:
		return soc.Stop()
	case op.Kernel != nil:
		return soc.Exec(*op.Kernel, op.Iters)
	case op.Idle != 0:
		return soc.IdleFor(op.Idle)
	default:
		return soc.SpinUntil(until)
	}
}

// next advances the agent to its next action: a family step's Op, a
// spin until a slot boundary, or stop after the last slot.
func (a *slotAgent) next(env *soc.Env, prev *soc.Result) (op Op, until units.Time, stop bool) {
	// The slot's pointers are set once: rewriting them every slot would
	// cost a GC write barrier per slot.
	if a.s.Env == nil {
		a.s.P, a.s.Env = a.p, env
	}
	for {
		switch a.phase {
		case phaseSpin:
			if a.idx >= a.slots {
				return Op{}, 0, true
			}
			a.s.Sym, a.s.Step, a.s.End = a.p.symbol(a.bits, a.idx), 0, a.slotStart(a.idx+1)
			if a.send {
				a.phase = phaseSend
				return Op{}, a.slotStart(a.idx), false
			}
			a.phase = phaseRead
			return Op{}, a.slotStart(a.idx).Add(a.p.Offset), false
		case phaseSend:
			if op = a.p.Send.Send(&a.s); op != (Op{}) {
				a.s.Step++
				return op, 0, false
			}
			a.s.Step = 0
			if a.read {
				a.phase = phaseRead
				continue
			}
			a.idx++
			a.phase = phaseSpin
		case phaseRead:
			if op = a.p.Read.Read(&a.s, prev); op != (Op{}) {
				a.s.Step++
				return op, 0, false
			}
			a.readings = append(a.readings, a.s.Reading)
			a.idx++
			a.phase = phaseSpin
		}
	}
}

// Validate rejects a slot schedule the runner cannot pace.
func (p *Protocol) Validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("core: slot period must be positive")
	}
	return nil
}

// symbol returns the symbol slot k of a bit stream carries.
func (p *Protocol) symbol(bits []int, k int) Symbol {
	if p.SlotBits == 1 {
		return Symbol(bits[k])
	}
	return SymbolFromBits(bits[2*k], bits[2*k+1])
}

// run sends a bit stream, SlotBits per slot, and returns the receiver's
// raw readings in slot order: the primitive under Calibrate, Transmit
// and Channel.RunSymbols.
func (p *Protocol) run(bits []int) ([]float64, error) {
	if err := validBits(bits); err != nil {
		return nil, err
	}
	if len(bits)%p.SlotBits != 0 {
		return nil, fmt.Errorf("core: bit stream length %d is not a multiple of the %d bits a slot carries", len(bits), p.SlotBits)
	}
	slots := len(bits) / p.SlotBits
	m := p.M
	base := m.Now().Add(p.Lead)
	// One reading per slot, sized up front so the per-slot append never
	// reallocates.
	rcv := &slotAgent{p: p, base: base, bits: bits, slots: slots, read: true,
		readings: make([]float64, 0, slots)}
	if p.Sender == p.Receiver {
		rcv.send = true
	} else {
		snd := &slotAgent{p: p, base: base, bits: bits, slots: slots, send: true}
		if _, err := m.Bind(p.Sender.Core, p.Sender.Slot, snd); err != nil {
			return nil, err
		}
	}
	if _, err := m.Bind(p.Receiver.Core, p.Receiver.Slot, rcv); err != nil {
		return nil, err
	}
	m.RunUntil(rcv.slotStart(slots).Add(p.Settle))
	if p.Restore != nil {
		p.Restore(m)
		m.RunFor(p.RestoreFor)
	}
	if len(rcv.readings) != slots {
		return nil, fmt.Errorf("core: %s took %d of %d readings (simulation ended early?)",
			p.Name, len(rcv.readings), slots)
	}
	return rcv.readings, nil
}

// Calibrate sends reps rounds of known symbols — every symbol in
// ascending order on a multi-level channel, a 1 then a 0 on a 1-bit one —
// fits the decoder to the readings, and returns the calibration gap: the
// smallest distance between the extremes of adjacent clusters for a
// Calibration, the distance between the 1- and 0-means for a Threshold.
func (p *Protocol) Calibrate(reps int) (gap float64, err error) {
	if reps <= 0 {
		return 0, fmt.Errorf("core: calibration repetitions must be positive")
	}
	levels := 1 << p.SlotBits
	bits := make([]int, 0, reps*levels*p.SlotBits)
	for i := 0; i < reps; i++ {
		for s := 0; s < levels; s++ {
			if p.SlotBits == 1 {
				bits = append(bits, 1-s)
			} else {
				hi, lo := Symbol(s).Bits()
				bits = append(bits, hi, lo)
			}
		}
	}
	readings, err := p.run(bits)
	if err != nil {
		return 0, err
	}
	var dec Decoder
	if p.SlotBits == BitsPerSlot {
		var groups [NumSymbols][]float64
		for s := range groups {
			groups[s] = make([]float64, 0, reps)
		}
		for i, r := range readings {
			s := p.symbol(bits, i)
			groups[s] = append(groups[s], r)
		}
		cal, err := NewCalibration(groups)
		if err != nil {
			return 0, err
		}
		dec, gap = cal, cal.Gap
	} else {
		var t Threshold
		if t, gap, err = p.learnThreshold(bits, readings); err != nil {
			return 0, err
		}
		dec = t
	}
	p.dec = dec
	return gap, nil
}

// Threshold is the 1-bit decoder: a reading past Level — above it, or
// below it when Inverted — decodes as 1.
type Threshold struct {
	Level    float64
	Inverted bool
}

// Decode implements Decoder.
func (t Threshold) Decode(reading float64) Symbol {
	if t.Inverted {
		if reading < t.Level {
			return 1
		}
	} else if reading > t.Level {
		return 1
	}
	return 0
}

// learnThreshold places the threshold midway between the mean 1- and
// 0-readings and returns it with the gap between those means, which must
// be positive in the protocol's declared polarity.
func (p *Protocol) learnThreshold(bits []int, readings []float64) (Threshold, float64, error) {
	var one, zero float64
	var ones, zeros int
	for i, r := range readings {
		if bits[i] == 1 {
			one += r
			ones++
		} else {
			zero += r
			zeros++
		}
	}
	mo, mz := one/float64(ones), zero/float64(zeros)
	gap := mo - mz
	if p.Inverted {
		gap = -gap
	}
	if gap <= 0 {
		return Threshold{}, 0, fmt.Errorf("core: %s calibration found no %s contrast (1→%g, 0→%g)", p.Name, p.Contrast, mo, mz)
	}
	return Threshold{Level: (mo + mz) / 2, Inverted: p.Inverted}, gap, nil
}

// Result reports one covert transmission over any channel.
type Result struct {
	// SentBits/DecodedBits are the bit streams, SlotBits per slot.
	SentBits, DecodedBits []int
	// Readings holds the receiver's raw per-slot reading.
	Readings []float64
	// Elapsed is the channel time of the whole transmission.
	Elapsed units.Duration
	// ThroughputBPS is raw bits transmitted per second of channel time.
	ThroughputBPS float64
	// BER is the bit error rate.
	BER float64
	// SymbolErrors counts wrongly decoded slots.
	SymbolErrors int
}

// Transmit sends a bit stream (SlotBits per slot) and decodes it with
// the current calibration.
func (p *Protocol) Transmit(bits []int) (*Result, error) {
	if p.dec == nil {
		return nil, fmt.Errorf("core: %s channel not calibrated; call Calibrate first", p.Name)
	}
	readings, err := p.run(bits)
	if err != nil {
		return nil, err
	}
	res := &Result{
		SentBits:    bits,
		DecodedBits: make([]int, len(bits)),
		Readings:    readings,
		Elapsed:     units.Duration(len(readings)) * p.Period,
	}
	for i, r := range readings {
		d := p.dec.Decode(r)
		if d != p.symbol(bits, i) {
			res.SymbolErrors++
		}
		if p.SlotBits == 1 {
			res.DecodedBits[i] = int(d)
		} else {
			res.DecodedBits[2*i], res.DecodedBits[2*i+1] = d.Bits()
		}
	}
	res.BER = stats.BER(bits, res.DecodedBits)
	if res.Elapsed > 0 {
		res.ThroughputBPS = float64(len(bits)) / res.Elapsed.Seconds()
	}
	return res, nil
}

// validBits rejects empty streams and non-binary values.
func validBits(bits []int) error {
	if len(bits) == 0 {
		return fmt.Errorf("core: empty bit stream")
	}
	for i, b := range bits {
		if b != 0 && b != 1 {
			return fmt.Errorf("core: bit %d is %d, want 0 or 1", i, b)
		}
	}
	return nil
}

// RawThroughputBPS is the slot-rate bound on throughput.
func (p *Protocol) RawThroughputBPS() float64 {
	return float64(p.SlotBits) / p.Period.Seconds()
}
