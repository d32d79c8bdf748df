package pmu

import (
	"fmt"
	"strings"
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/pdn"
	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// The in-flight tests pin the PMU's per-regulator transition state: the
// transition being processed (with its PLL relock target) and its
// tentative license vector live in one buffer per regulator, so a
// request that queues (or, with per-core regulators, starts) while
// another waits behind an Iccmax downshift must not disturb the pending
// ramp. The expected timelines are recorded values; any divergence in
// event order, grant timing, or voltage target shows up as a line diff.

// inflightScript drives three busy cores through a grant that waits
// behind an Iccmax downshift while a second (and, mid-relock, a third)
// grant queues behind it, then lets the licenses decay, the frequency
// restore, and a software frequency change run down and back up. It
// returns the timeline: every grant and every change in frequency or
// regulator target, in firing order.
func inflightScript(p *PMU, q *sched.Queue, cores []*fakeCore) []string {
	for _, c := range cores {
		c.busy = true
	}
	cores[0].active = isa.Vec512Heavy
	cores[1].active = isa.Vec256Heavy
	cores[2].active = isa.Scalar64
	p.RequestLicense(0, isa.Vec512Heavy)
	p.RequestLicense(1, isa.Vec256Heavy)
	q.At(units.Time(3*units.Microsecond), "test.core2", func(units.Time) {
		cores[2].active = isa.Vec128Heavy
		p.RequestLicense(2, isa.Vec128Heavy)
	})
	q.At(units.Time(1*units.Millisecond), "test.idle", func(units.Time) {
		for _, c := range cores {
			c.busy = false
			c.active = isa.Scalar64
		}
	})
	q.At(units.Time(20*units.Millisecond), "test.freqdown", func(units.Time) {
		p.SetRequestedFrequency(2 * units.GHz)
	})
	q.At(units.Time(21*units.Millisecond), "test.frequp", func(units.Time) {
		p.SetRequestedFrequency(3.1 * units.GHz)
	})
	q.At(units.Time(22*units.Millisecond), "test.regrant", func(units.Time) {
		cores[1].busy = true
		cores[1].active = isa.Vec512Light
		p.RequestLicense(1, isa.Vec512Light)
	})

	var log []string
	nregs := len(p.regs)
	granted := make([]int, len(cores))
	state := func() string {
		var b strings.Builder
		fmt.Fprintf(&b, "f=%v", float64(p.Frequency()))
		for ri := 0; ri < nregs; ri++ {
			fmt.Fprintf(&b, " v%d=%v", ri, float64(p.regs[ri].vr.Target()))
		}
		return b.String()
	}
	last := state()
	log = append(log, "0 "+last)
	for q.Step() && q.Now() <= units.Time(25*units.Millisecond) {
		for i, c := range cores {
			for ; granted[i] < len(c.granted); granted[i]++ {
				log = append(log, fmt.Sprintf("%d grant core%d %v", int64(q.Now()), i, c.granted[granted[i]]))
			}
		}
		if s := state(); s != last {
			log = append(log, fmt.Sprintf("%d %s", int64(q.Now()), s))
			last = s
		}
	}
	log = append(log, fmt.Sprintf("licenses %v", p.Licenses()))
	log = append(log, fmt.Sprintf("stats %+v", p.Stats()))
	return log
}

func inflightConfig(perCore bool) Config {
	cfg := testConfig()
	cfg.RequestedFrequency = 3.1 * units.GHz
	if perCore {
		cfg.PerCoreVR = true
		cfg.VR = pdn.DefaultConfig(pdn.LDO)
	}
	return cfg
}

func checkTimeline(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	t.Errorf("timeline diverged:\n got:\n\t%s\nwant:\n\t%s",
		strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
}

func TestInflightGrantBehindDownshift(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perCore bool
		want    []string
	}{
		{"shared", false, inflightSharedWant},
		{"percore", true, inflightPerCoreWant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := inflightConfig(tc.perCore)
			p, q, cores := newTestPMU(t, cfg, 3)
			checkTimeline(t, inflightScript(p, q, cores), tc.want)

			// A Reset machine must replay the same timeline: the
			// per-regulator buffers carry nothing across runs.
			q.Reset()
			if err := p.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			for i := range cores {
				*cores[i] = fakeCore{id: i}
			}
			checkTimeline(t, inflightScript(p, q, cores), tc.want)

			// So must one Reset while a grant waits behind its
			// downshift and another queues behind it.
			q.Reset()
			if err := p.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			for i := range cores {
				*cores[i] = fakeCore{id: i, busy: true, active: isa.Vec512Heavy}
			}
			p.RequestLicense(0, isa.Vec512Heavy)
			p.RequestLicense(1, isa.Vec512Heavy)
			q.RunUntil(units.Time(3 * units.Microsecond))
			q.Reset()
			if err := p.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			for i := range cores {
				*cores[i] = fakeCore{id: i}
			}
			checkTimeline(t, inflightScript(p, q, cores), tc.want)
		})
	}
}

// quietCore is a Core that records nothing, for allocation tests.
type quietCore struct {
	busy   bool
	active isa.Class
}

func (c *quietCore) ID() int                                { return 0 }
func (c *quietCore) Busy() bool                             { return c.busy }
func (c *quietCore) ActiveClass() isa.Class                 { return c.active }
func (c *quietCore) GrantLicense(isa.Class, units.Time)     {}
func (c *quietCore) DowngradeLicense(isa.Class, units.Time) {}
func (c *quietCore) SetFrequency(units.Hertz, units.Time)   {}
func (c *quietCore) SetHalted(bool, units.Time)             {}
func (c *quietCore) SetDutyCycle(float64, units.Time)       {}

// A warmed grant → settle → decay → retarget cycle, including the
// Iccmax downshift in front of the grant and the frequency restore after
// the decay, must not allocate: every callback is bound once per
// regulator and every buffer is reused.
func TestTransitionSteadyStateAllocFree(t *testing.T) {
	for _, perCore := range []bool{false, true} {
		cfg := inflightConfig(perCore)
		q := sched.NewQueue()
		p, err := New(cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		qc := []*quietCore{{}, {}}
		if err := p.AttachCores([]Core{qc[0], qc[1]}); err != nil {
			t.Fatal(err)
		}
		if err := p.Initialize(); err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			for _, c := range qc {
				c.busy, c.active = true, isa.Vec512Heavy
			}
			p.RequestLicense(0, isa.Vec512Heavy)
			p.RequestLicense(1, isa.Vec512Heavy)
			q.RunUntil(q.Now().Add(100 * units.Microsecond))
			for _, c := range qc {
				c.busy, c.active = false, isa.Scalar64
			}
			q.RunUntil(q.Now().Add(20 * units.Millisecond))
		}
		cycle()
		downshifts := p.Stats().FreqDownshifts
		allocs := testing.AllocsPerRun(20, cycle)
		if allocs != 0 {
			t.Errorf("PerCoreVR=%v: steady-state transition cycle allocated %v per run", perCore, allocs)
		}
		st := p.Stats()
		if st.FreqDownshifts == downshifts || st.FreqRestores == 0 || st.Downgrades == 0 {
			t.Fatalf("PerCoreVR=%v: cycle does not exercise downshift/restore/decay: %+v", perCore, st)
		}
	}
}

var inflightSharedWant = []string{
	"0 f=3.1e+09 v0=1.0500113",
	"7000000 f=2.4e+09 v0=0.8976008",
	"84705250 grant core0 512b_Heavy",
	"91705250 f=2e+09 v0=0.8188199999999999",
	"132595650 grant core1 256b_Heavy",
	"139595650 f=1.8e+09 v0=0.7813892",
	"159811049 grant core2 128b_Heavy",
	"1300000001 f=1.8e+09 v0=0.7601492000000001",
	"1312120000 f=1.8e+09 v0=0.7398092000000001",
	"15132595650 f=1.8e+09 v0=1.0500113",
	"15451297749 f=3.1e+09 v0=1.0500113",
	"20007000000 f=2e+09 v0=0.7782199999999999",
	"21000000000 f=2e+09 v0=1.0500113",
	"21280291300 f=3.1e+09 v0=1.0500113",
	"22000000000 f=3.1e+09 v0=1.0825613",
	"22034050000 grant core1 512b_Light",
	"licenses [64b 512b_Light 64b]",
	"stats {Grants:4 Downgrades:3 FreqDownshifts:3 FreqRestores:2 Transitions:10 SerializedWaits:4}",
}

var inflightPerCoreWant = []string{
	"0 f=3.1e+09 v0=1.0500113 v1=1.0500113 v2=1.0500113",
	"7000000 f=2.4e+09 v0=0.8976008 v1=1.0500113 v2=1.0500113",
	"7000000 f=2.7e+09 v0=0.8976008 v1=0.9622757 v2=1.0500113",
	"8512260 grant core1 256b_Heavy",
	"9590175 grant core0 512b_Heavy",
	"10000000 f=3e+09 v0=0.8976008 v1=0.9622757 v2=1.0315699999999999",
	"10357355 grant core2 128b_Heavy",
	"1300000001 f=3e+09 v0=1.02107 v1=0.9622757 v2=1.0315699999999999",
	"1300000001 f=3e+09 v0=1.02107 v1=1.02107 v2=1.0315699999999999",
	"1303000001 f=3e+09 v0=1.02107 v1=1.02107 v2=1.02107",
	"15003000000 f=3e+09 v0=1.0500113 v1=1.02107 v2=1.02107",
	"15010532355 f=3.1e+09 v0=1.0500113 v1=1.02107 v2=1.02107",
	"20007000000 f=2e+09 v0=0.7782199999999999 v1=1.02107 v2=1.02107",
	"21000000000 f=2e+09 v0=1.0500113 v1=1.02107 v2=1.02107",
	"21011579855 f=3.1e+09 v0=1.0500113 v1=1.02107 v2=1.02107",
	"22000000000 f=3.1e+09 v0=1.0500113 v1=1.0825613 v2=1.02107",
	"22001074855 grant core1 512b_Light",
	"licenses [64b 512b_Light 64b]",
	"stats {Grants:4 Downgrades:3 FreqDownshifts:3 FreqRestores:2 Transitions:10 SerializedWaits:0}",
}
