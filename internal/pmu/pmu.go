package pmu

import (
	"fmt"
	"math"
	"strconv"

	"ichannels/internal/isa"
	"ichannels/internal/pdn"
	"ichannels/internal/power"
	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// Core is the PMU-facing view of a CPU core. *uarch.Core satisfies it.
type Core interface {
	ID() int
	Busy() bool
	ActiveClass() isa.Class
	GrantLicense(c isa.Class, now units.Time)
	DowngradeLicense(c isa.Class, now units.Time)
	SetFrequency(f units.Hertz, now units.Time)
	SetHalted(h bool, now units.Time)
	SetDutyCycle(d float64, now units.Time)
}

// Config describes the central PMU.
type Config struct {
	Guardband GuardbandTable
	VF        power.VFCurve
	Limits    power.Limits
	Cdyn      power.CdynModel
	Leakage   power.LeakageModel

	// LicenseHysteresis is the paper's reset-time (~650 µs): a license
	// (and its guardband voltage) is held for this long after the last
	// use of its class before decaying to the baseline.
	LicenseHysteresis units.Duration

	// FreqRestoreDelay is how long after a protective frequency
	// reduction the PMU waits before restoring a higher frequency.
	// Milliseconds on real parts — this slowness is what limits
	// TurboCC-style channels.
	FreqRestoreDelay units.Duration

	// FreqStep is the P-state granularity (bus-clock multiples).
	FreqStep units.Hertz

	// PLLRelock is how long all cores halt while the clock retargets.
	PLLRelock units.Duration

	// RequestedFrequency is the operating point software asked for; the
	// PMU caps it to whatever the electrical limits allow.
	RequestedFrequency units.Hertz

	// PerCoreVR gives every core its own regulator (mitigation 1):
	// transitions no longer serialize across cores and each core's
	// guardband covers only its own load.
	PerCoreVR bool

	// VR parametrizes the regulator(s).
	VR pdn.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Guardband.Validate(); err != nil {
		return err
	}
	if err := c.VF.Validate(); err != nil {
		return err
	}
	if err := c.Limits.Validate(); err != nil {
		return err
	}
	if err := c.Cdyn.Validate(); err != nil {
		return err
	}
	if err := c.VR.Validate(); err != nil {
		return err
	}
	if c.LicenseHysteresis <= 0 {
		return fmt.Errorf("pmu: license hysteresis must be positive")
	}
	if c.FreqRestoreDelay < 0 || c.PLLRelock < 0 {
		return fmt.Errorf("pmu: negative frequency-transition latency")
	}
	if c.FreqStep <= 0 {
		return fmt.Errorf("pmu: frequency step must be positive")
	}
	if c.RequestedFrequency <= 0 {
		return fmt.Errorf("pmu: requested frequency must be positive")
	}
	return nil
}

type transKind int

const (
	transGrant transKind = iota
	transRetarget
	transFreqUp
	transFreqDown
)

type transition struct {
	kind  transKind
	core  int
	class isa.Class
	// toFreq is the clock the transition relocks the PLL to: the
	// requested one for transFreqDown, the limit-capped one for
	// transFreqUp, and the protective downshift target for a transGrant
	// that needs one.
	toFreq units.Hertz
}

// regulator is one voltage regulator's transition state. A regulator
// runs one transition at a time — the rest wait in queue — so the
// in-flight transition and its tentative license vector need only one
// slot per regulator: nothing can overwrite them before finish. The
// event callbacks are bound once in AttachCores and read that state,
// keeping every transition free of closure and slice allocations.
type regulator struct {
	vr    *pdn.Regulator
	busy  bool
	queue []transition // FIFO; dequeued by shifting, reusing the array

	cur       transition  // in flight
	tentative []isa.Class // licenses with cur's grant applied

	relocked      func(units.Time) // "pmu.pll.relock"
	granted       func(units.Time) // "pmu.grant.settle"
	settled       func(units.Time) // retarget / freq-down settle: finish
	freqUpSettled func(units.Time) // freq-up: relock at the new clock
}

// Stats counts PMU activity, exposed for experiments and tests.
type Stats struct {
	Grants          uint64
	Downgrades      uint64
	FreqDownshifts  uint64
	FreqRestores    uint64
	Transitions     uint64
	SerializedWaits uint64 // transitions that had to queue behind another
}

const longAgo = units.Time(math.MinInt64 / 4)

// PMU is the central power management unit.
type PMU struct {
	cfg   Config
	q     *sched.Queue
	cores []Core
	regs  []regulator

	lic       []isa.Class
	lastTouch [][isa.NumClasses]units.Time
	decayEv   []sched.EventRef
	decayFn   []func(units.Time) // prebound per-core decay callbacks
	decayName []string           // precomputed event names

	curFreq       units.Hertz
	lastDownshift units.Time
	restoreEv     sched.EventRef
	restoreFn     func(units.Time) // prebound restore check
	restoreQueued bool

	secure      bool
	initialized bool

	stats Stats
}

// New creates a PMU. Cores must be attached with AttachCores and the unit
// started with Initialize before any license traffic.
func New(cfg Config, q *sched.Queue) (*PMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("pmu: nil scheduler")
	}
	return &PMU{cfg: cfg, q: q}, nil
}

// AttachCores registers the cores the PMU manages.
func (p *PMU) AttachCores(cores []Core) error {
	if p.initialized {
		return fmt.Errorf("pmu: AttachCores after Initialize")
	}
	if len(cores) == 0 {
		return fmt.Errorf("pmu: no cores")
	}
	p.cores = cores
	n := len(cores)
	p.lic = make([]isa.Class, n)
	p.lastTouch = make([][isa.NumClasses]units.Time, n)
	for i := range p.lastTouch {
		for c := range p.lastTouch[i] {
			p.lastTouch[i][c] = longAgo
		}
	}
	p.decayEv = make([]sched.EventRef, n)
	// The decay check reschedules itself on every license touch window;
	// binding the callback and its event name once per core keeps that
	// hot path free of per-schedule closure and string allocations.
	p.decayFn = make([]func(units.Time), n)
	p.decayName = make([]string, n)
	for i := 0; i < n; i++ {
		coreID := i
		p.decayName[i] = "pmu.decay.core" + strconv.Itoa(coreID)
		p.decayFn[i] = func(now units.Time) {
			p.decayEv[coreID] = sched.EventRef{}
			p.decayCheck(coreID, now)
		}
	}
	p.restoreFn = func(now units.Time) {
		p.restoreEv = sched.EventRef{}
		p.maybeRestoreFrequency(now)
	}
	nregs := 1
	if p.cfg.PerCoreVR {
		nregs = n
	}
	p.regs = make([]regulator, nregs)
	for i := range p.regs {
		p.bindRegulator(i)
	}
	return nil
}

// bindRegulator allocates regulator ri's license buffer and binds its
// transition callbacks.
func (p *PMU) bindRegulator(ri int) {
	r := &p.regs[ri]
	r.tentative = make([]isa.Class, len(p.cores))
	r.relocked = func(t units.Time) { p.relocked(ri, t) }
	r.granted = func(t units.Time) {
		tr := &r.cur
		if tr.class > p.lic[tr.core] {
			p.lic[tr.core] = tr.class
		}
		p.stats.Grants++
		p.cores[tr.core].GrantLicense(tr.class, t)
		p.finish(ri)
	}
	r.settled = func(units.Time) { p.finish(ri) }
	r.freqUpSettled = func(t units.Time) { p.switchFrequency(ri, t) }
}

// Initialize settles the PMU at the requested operating point: frequency
// capped by the electrical limits for an all-scalar machine, regulators at
// the corresponding base voltage.
func (p *PMU) Initialize() error {
	if p.cores == nil {
		return fmt.Errorf("pmu: Initialize before AttachCores")
	}
	if p.initialized {
		return fmt.Errorf("pmu: double Initialize")
	}
	now := p.q.Now()
	f := p.maxFreqAllowed(p.lic)
	if f <= 0 {
		return fmt.Errorf("pmu: no frequency satisfies the electrical limits even for scalar code")
	}
	p.curFreq = f
	for _, c := range p.cores {
		c.SetFrequency(f, now)
	}
	v0 := p.cfg.VF.Voltage(f)
	for i := range p.regs {
		vr, err := pdn.NewRegulator(p.cfg.VR, v0)
		if err != nil {
			return err
		}
		p.regs[i].vr = vr
	}
	p.lastDownshift = longAgo
	p.initialized = true
	return nil
}

// Reset returns an initialized PMU to its just-initialized state under a
// (possibly updated) configuration, reusing the attached cores, regulators,
// and every internal slice — the in-place form a pooled machine uses. The
// regulator topology must not change (machine pools key on PerCoreVR), and
// the shared scheduler must have been reset first.
func (p *PMU) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !p.initialized {
		return fmt.Errorf("pmu: Reset before Initialize")
	}
	if cfg.PerCoreVR != p.cfg.PerCoreVR {
		return fmt.Errorf("pmu: Reset cannot change regulator topology")
	}
	p.cfg = cfg
	p.secure = false
	p.stats = Stats{}
	p.restoreQueued = false
	p.restoreEv = sched.EventRef{}
	for i := range p.lic {
		p.lic[i] = isa.Scalar64
		p.decayEv[i] = sched.EventRef{}
		for c := range p.lastTouch[i] {
			p.lastTouch[i][c] = longAgo
		}
	}
	for i := range p.regs {
		p.regs[i].busy = false
		p.regs[i].queue = p.regs[i].queue[:0]
	}
	// Re-settle at the requested operating point, exactly as Initialize.
	now := p.q.Now()
	f := p.maxFreqAllowed(p.lic)
	if f <= 0 {
		return fmt.Errorf("pmu: no frequency satisfies the electrical limits even for scalar code")
	}
	p.curFreq = f
	for _, c := range p.cores {
		c.SetFrequency(f, now)
	}
	v0 := p.cfg.VF.Voltage(f)
	for i := range p.regs {
		if err := p.regs[i].vr.Reset(p.cfg.VR, v0); err != nil {
			return err
		}
	}
	p.lastDownshift = longAgo
	return nil
}

// Stats returns a copy of the PMU activity counters.
func (p *PMU) Stats() Stats { return p.stats }

// Frequency returns the current core clock frequency.
func (p *PMU) Frequency() units.Hertz { return p.curFreq }

// Licenses returns a copy of the per-core granted licenses.
func (p *PMU) Licenses() []isa.Class {
	out := make([]isa.Class, len(p.lic))
	copy(out, p.lic)
	return out
}

// Voltage returns the instantaneous output of the regulator feeding core
// coreID (the shared regulator when PerCoreVR is off).
func (p *PMU) Voltage(coreID int, now units.Time) units.Volt {
	return p.regs[p.regIndex(coreID)].vr.Voltage(now)
}

// TargetVoltage returns the voltage the regulator for coreID is settling
// toward.
func (p *PMU) TargetVoltage(coreID int) units.Volt {
	return p.regs[p.regIndex(coreID)].vr.Target()
}

// Secure reports whether secure mode is active.
func (p *PMU) Secure() bool { return p.secure }

// RequestedFrequency returns the software-requested operating point.
func (p *PMU) RequestedFrequency() units.Hertz { return p.cfg.RequestedFrequency }

// SetRequestedFrequency changes the software-requested operating point at
// runtime — the hardware-visible effect of a governor or sysfs frequency
// write (the mechanism the DFScovert baseline modulates). Downward changes
// queue a protective-style downshift; upward changes go through the normal
// restore path (and still respect the electrical limits).
func (p *PMU) SetRequestedFrequency(f units.Hertz) {
	p.mustInit()
	if f <= 0 {
		panic(fmt.Sprintf("pmu: non-positive requested frequency %v", f))
	}
	p.cfg.RequestedFrequency = f
	if f < p.curFreq {
		p.enqueue(0, transition{kind: transFreqDown, toFreq: f})
		return
	}
	// Allow an immediate restore: a deliberate software request is not
	// subject to the protection hold-off.
	p.lastDownshift = longAgo
	p.maybeRestoreFrequency(p.q.Now())
}

// SetClockDuty programs the package-wide clock-modulation duty cycle — the
// hardware-visible effect of writing IA32_CLOCK_MODULATION (T-states). The
// front-end of every core delivers uops only in the on fraction d of cycles;
// d == 1 disables modulation. Unlike frequency changes this takes effect
// immediately: no PLL relock, no protective hold-off — which is exactly why
// duty cycling makes a faster covert-channel carrier than DVFS.
func (p *PMU) SetClockDuty(d float64) {
	p.mustInit()
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("pmu: clock duty %v outside (0,1]", d))
	}
	now := p.q.Now()
	for _, c := range p.cores {
		c.SetDutyCycle(d, now)
	}
}

// SetSecure enables or disables secure mode (mitigation 3): the voltage is
// pinned at the worst-case power-virus guardband so PHI execution never
// needs a transition, and license requests are granted instantly without
// throttling. Callers should allow the initial ramp to settle before
// relying on the no-throttle property.
func (p *PMU) SetSecure(on bool) {
	if on == p.secure {
		return
	}
	p.secure = on
	// Re-aim every regulator at the (new) target; in secure mode that is
	// the worst-case guardband, out of it the current licenses' level.
	for ri := range p.regs {
		p.enqueue(ri, transition{kind: transRetarget})
	}
}

// regIndex maps a core to its regulator.
func (p *PMU) regIndex(coreID int) int {
	if p.cfg.PerCoreVR {
		return coreID
	}
	return 0
}

// RequestLicense implements uarch.CurrentManager: a core needs its license
// raised to class c. The grant arrives via Core.GrantLicense when the
// backing voltage transition completes (immediately in secure mode).
func (p *PMU) RequestLicense(coreID int, c isa.Class) {
	p.mustInit()
	p.touch(coreID, c)
	if p.secure {
		// Voltage already pinned at worst case: nothing to ramp.
		p.stats.Grants++
		if c > p.lic[coreID] {
			p.lic[coreID] = c
		}
		p.cores[coreID].GrantLicense(c, p.q.Now())
		return
	}
	p.enqueue(p.regIndex(coreID), transition{kind: transGrant, core: coreID, class: c})
}

// TouchLicense implements uarch.CurrentManager: class c was used on the
// core, refreshing its reset-time window.
func (p *PMU) TouchLicense(coreID int, c isa.Class) {
	p.mustInit()
	p.touch(coreID, c)
}

func (p *PMU) mustInit() {
	if !p.initialized {
		panic("pmu: used before Initialize")
	}
}

func (p *PMU) touch(coreID int, c isa.Class) {
	if !c.PHI() {
		return
	}
	now := p.q.Now()
	p.lastTouch[coreID][c] = now
	if p.decayEv[coreID].Cancelled() {
		p.scheduleDecay(coreID, now.Add(p.cfg.LicenseHysteresis))
	}
}

func (p *PMU) scheduleDecay(coreID int, at units.Time) {
	p.decayEv[coreID] = p.q.At(at, p.decayName[coreID], p.decayFn[coreID])
}

// effectiveDemand returns the highest class the core is entitled to keep a
// license for: anything touched within the hysteresis window or actively
// executing right now.
func (p *PMU) effectiveDemand(coreID int, now units.Time) isa.Class {
	eff := p.cores[coreID].ActiveClass()
	horizon := now.Add(-units.Duration(p.cfg.LicenseHysteresis))
	for c := isa.NumClasses - 1; c > int(isa.Scalar64); c-- {
		if isa.Class(c) <= eff {
			break
		}
		if p.lastTouch[coreID][c] >= horizon {
			eff = isa.Class(c)
			break
		}
	}
	return eff
}

func (p *PMU) decayCheck(coreID int, now units.Time) {
	eff := p.effectiveDemand(coreID, now)
	if eff < p.lic[coreID] && !p.secure {
		p.lic[coreID] = eff
		p.stats.Downgrades++
		p.cores[coreID].DowngradeLicense(eff, now)
		p.enqueue(p.regIndex(coreID), transition{kind: transRetarget})
		p.maybeRestoreFrequency(now)
	}
	// Schedule the next check at the earliest future expiry, if any
	// class remains in its window or in active use.
	next := units.Time(math.MaxInt64)
	horizon := now.Add(-units.Duration(p.cfg.LicenseHysteresis))
	for c := int(isa.Scalar64) + 1; c < isa.NumClasses; c++ {
		if t := p.lastTouch[coreID][c]; t >= horizon {
			if e := t.Add(p.cfg.LicenseHysteresis); e < next {
				next = e
			}
		}
	}
	if p.cores[coreID].ActiveClass().PHI() {
		if e := now.Add(p.cfg.LicenseHysteresis); e < next {
			next = e
		}
	}
	if next < units.Time(math.MaxInt64) {
		if next <= now {
			next = now.Add(1)
		}
		p.scheduleDecay(coreID, next)
	}
}

// targetVoltage computes the voltage regulator ri should hold for the
// given per-core licenses at frequency f.
func (p *PMU) targetVoltage(ri int, licenses []isa.Class, f units.Hertz) units.Volt {
	base := p.cfg.VF.Voltage(f)
	if p.secure {
		n := len(p.cores)
		if p.cfg.PerCoreVR {
			n = 1
		}
		return base + p.cfg.Guardband.Max(n, f)
	}
	if p.cfg.PerCoreVR {
		return base + p.cfg.Guardband.Single(licenses[ri], f)
	}
	return base + p.cfg.Guardband.Sum(licenses, f)
}

// projectedIcc estimates worst-case supply current: every busy core drawing
// its licensed class's power-virus current, idle cores at idle Cdyn, plus
// leakage at a conservative temperature.
func (p *PMU) projectedIcc(licenses []isa.Class, v units.Volt, f units.Hertz) units.Ampere {
	var cdyn float64
	for i, c := range p.cores {
		if c.Busy() {
			cdyn += p.cfg.Cdyn.PerClass[licenses[i]]
		} else {
			cdyn += p.cfg.Cdyn.Idle
		}
	}
	icc := power.DynamicCurrent(cdyn, v, f)
	icc += p.cfg.Leakage.Current(v, 70)
	return icc
}

// maxFreqAllowed returns the highest frequency ≤ the requested operating
// point at which the given licenses fit both the Vccmax and Iccmax limits.
// Returns 0 if even the lowest step violates them.
func (p *PMU) maxFreqAllowed(licenses []isa.Class) units.Hertz {
	for f := p.cfg.RequestedFrequency; f >= p.cfg.FreqStep; f -= p.cfg.FreqStep {
		var v units.Volt
		if p.secure {
			v = p.cfg.VF.Voltage(f) + p.cfg.Guardband.Max(len(p.cores), f)
		} else {
			v = p.cfg.VF.Voltage(f) + p.cfg.Guardband.Sum(licenses, f)
		}
		if v > p.cfg.Limits.VccMax {
			continue
		}
		if p.projectedIcc(licenses, v, f) > p.cfg.Limits.IccMax {
			continue
		}
		return f
	}
	return 0
}

// enqueue adds a transition to regulator ri's serialized queue and kicks
// processing. This serialization — one voltage transition in flight per
// regulator, requests from other cores waiting behind it — is the
// mechanism behind Multi-Throttling-Cores (paper §4.3.1).
func (p *PMU) enqueue(ri int, tr transition) {
	r := &p.regs[ri]
	if r.busy || len(r.queue) > 0 {
		p.stats.SerializedWaits++
	}
	r.queue = append(r.queue, tr)
	p.kick(ri)
}

func (p *PMU) kick(ri int) {
	r := &p.regs[ri]
	if r.busy || len(r.queue) == 0 {
		return
	}
	r.cur = r.queue[0]
	n := copy(r.queue, r.queue[1:])
	r.queue = r.queue[:n]
	r.busy = true
	p.stats.Transitions++
	p.process(ri)
}

func (p *PMU) finish(ri int) {
	p.regs[ri].busy = false
	p.maybeRestoreFrequency(p.q.Now())
	p.kick(ri)
}

// process starts regulator ri's in-flight transition.
func (p *PMU) process(ri int) {
	r := &p.regs[ri]
	tr := &r.cur
	now := p.q.Now()
	switch tr.kind {
	case transGrant:
		copy(r.tentative, p.lic)
		if tr.class > r.tentative[tr.core] {
			r.tentative[tr.core] = tr.class
		}
		fOK := p.maxFreqAllowed(r.tentative)
		if fOK <= 0 {
			fOK = p.cfg.FreqStep
		}
		if fOK < p.curFreq {
			// Iccmax/Vccmax protection: reduce frequency before
			// raising the guardband (paper §5.3).
			tr.toFreq = fOK
			p.downshift(ri)
			return
		}
		p.rampForGrant(ri)

	case transRetarget:
		target := p.targetVoltage(ri, p.lic, p.curFreq)
		settle := r.vr.SetTarget(now, target)
		p.q.At(settle, "pmu.retarget.settle", r.settled)

	case transFreqDown:
		if tr.toFreq >= p.curFreq {
			p.finish(ri)
			return
		}
		// Switch the clock first, then relax the voltage to the new
		// operating point.
		p.switchFrequency(ri, now)

	case transFreqUp:
		fOK := p.maxFreqAllowed(p.lic)
		if tr.toFreq > fOK {
			tr.toFreq = fOK
		}
		if tr.toFreq <= p.curFreq {
			p.restoreQueued = false
			p.finish(ri)
			return
		}
		// Raise the voltage for the new frequency first, then relock
		// the PLL.
		target := p.targetVoltage(ri, p.lic, tr.toFreq)
		settle := r.vr.SetTarget(now, target)
		p.q.At(settle, "pmu.frequp.vsettle", r.freqUpSettled)
	}
}

// rampForGrant raises regulator ri to the guardband of its in-flight
// grant's tentative licenses; the grant lands when the ramp settles.
func (p *PMU) rampForGrant(ri int) {
	r := &p.regs[ri]
	target := p.targetVoltage(ri, r.tentative, p.curFreq)
	settle := r.vr.SetTarget(p.q.Now(), target)
	p.q.At(settle, "pmu.grant.settle", r.granted)
}

// downshift starts the protective frequency reduction in front of
// regulator ri's grant.
func (p *PMU) downshift(ri int) {
	now := p.q.Now()
	p.stats.FreqDownshifts++
	p.lastDownshift = now
	p.switchFrequency(ri, now)
	// Plan a restore check once the protection window has passed.
	p.scheduleRestoreCheck(now.Add(p.cfg.FreqRestoreDelay))
}

// switchFrequency starts the PLL relock to regulator ri's in-flight
// toFreq: all cores halt for PLLRelock.
func (p *PMU) switchFrequency(ri int, now units.Time) {
	for _, c := range p.cores {
		c.SetHalted(true, now)
	}
	p.q.At(now.Add(p.cfg.PLLRelock), "pmu.pll.relock", p.regs[ri].relocked)
}

// relocked ends the PLL relock — the cores resume at the new frequency —
// and continues regulator ri's transition.
func (p *PMU) relocked(ri int, now units.Time) {
	r := &p.regs[ri]
	p.curFreq = r.cur.toFreq
	for _, c := range p.cores {
		c.SetFrequency(p.curFreq, now)
		c.SetHalted(false, now)
	}
	switch r.cur.kind {
	case transGrant:
		p.rampForGrant(ri)
	case transFreqDown:
		target := p.targetVoltage(ri, p.lic, p.curFreq)
		settle := r.vr.SetTarget(now, target)
		p.q.At(settle, "pmu.freqdown.vsettle", r.settled)
	case transFreqUp:
		p.stats.FreqRestores++
		p.restoreQueued = false
		p.finish(ri)
	}
}

func (p *PMU) scheduleRestoreCheck(at units.Time) {
	if !p.restoreEv.Cancelled() && p.restoreEv.Time() <= at {
		return
	}
	p.q.Cancel(p.restoreEv)
	p.restoreEv = p.q.At(at, "pmu.freq.restorecheck", p.restoreFn)
}

// maybeRestoreFrequency queues a frequency-up transition when the
// protection window has elapsed and the current licenses allow a higher
// operating point again.
func (p *PMU) maybeRestoreFrequency(now units.Time) {
	if p.curFreq >= p.cfg.RequestedFrequency || p.restoreQueued {
		return
	}
	if now.Sub(p.lastDownshift) < p.cfg.FreqRestoreDelay {
		p.scheduleRestoreCheck(p.lastDownshift.Add(p.cfg.FreqRestoreDelay))
		return
	}
	fOK := p.maxFreqAllowed(p.lic)
	if fOK > p.curFreq {
		p.restoreQueued = true
		p.enqueue(0, transition{kind: transFreqUp, toFreq: fOK})
	}
}
