package baselines

import (
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NewPowerT declares Khatamifard et al.'s POWERT channel: the sender on
// core 0 modulates the package's power/thermal state (here: die-stage
// junction temperature) by running a power virus for 60% of a 1-window,
// and the receiver on core 1 polls the thermal sensor every 500 µs. The
// 8.2 ms bit period rides the die thermal time constant, giving the
// ~122 b/s the paper quotes — still 24× below IChannels.
func NewPowerT(m *soc.Machine) (*core.Protocol, error) {
	if err := needTwoCores(m, "PowerT"); err != nil {
		return nil, err
	}
	return &core.Protocol{
		Name:     "powert",
		M:        m,
		Lead:     50 * units.Microsecond,
		Period:   8200 * units.Microsecond, // ≈122 b/s
		Settle:   500 * units.Microsecond,
		Sender:   core.Thread{Core: 0, Slot: 0},
		Receiver: core.Thread{Core: 1, Slot: 0},
		Send:     &heater{fraction: 0.6},
		Read:     &thermometer{poll: 500 * units.Microsecond},
		SlotBits: 1,
		Contrast: "thermal",
	}, nil
}

// heater runs the power virus through the given fraction of a 1-window.
type heater struct{ fraction float64 }

func (h *heater) Send(s *core.Slot) core.Op {
	if s.Step > 0 || s.Sym == 0 {
		return core.Op{}
	}
	heat := units.Duration(float64(s.P.Period) * h.fraction)
	// Size the virus loop to roughly fill the heating window.
	freq := s.Env.M.PMU.Frequency()
	k := &isa.Loop256Heavy
	iters := int64(heat.Seconds()*float64(freq)/float64(k.UopsPerIter)) + 1
	return core.Op{Kernel: k, Iters: iters}
}

// thermometer polls the thermal sensor through each window; its reading
// is the peak rise over the window's first poll (robust to tail-end
// cooling).
type thermometer struct {
	poll        units.Duration
	start, peak float64
}

func (t *thermometer) Read(s *core.Slot, _ *soc.Result) core.Op {
	temp := float64(s.Env.M.ProbeScalars().Temp)
	if s.Step == 0 {
		t.start, t.peak = temp, temp
	} else if temp > t.peak {
		t.peak = temp
	}
	if s.Env.Now().Add(t.poll).Add(t.poll/2) >= s.End {
		s.Reading = t.peak - t.start
		return core.Op{}
	}
	return core.Op{Idle: t.poll}
}
