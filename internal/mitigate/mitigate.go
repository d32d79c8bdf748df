// Package mitigate implements and evaluates the paper's three proposed
// defenses (§7, Table 1):
//
//  1. Per-core voltage regulators (fast LDOs): each core handles its own
//     transitions, killing the cross-core serialization side-effect and
//     shrinking throttling periods below the noise floor (partial for the
//     same-thread and SMT channels).
//  2. Improved core throttling: only the PHI-issuing thread's uops are
//     blocked, so SMT siblings observe nothing.
//  3. Secure mode: the voltage is pinned at the worst-case power-virus
//     guardband, so PHI execution never triggers a transition at all.
//
// Evaluation builds a machine with the mitigation applied, attempts to
// calibrate and run each IChannels variant under realistic measurement
// noise, and grades the outcome.
package mitigate

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/model"
	"ichannels/internal/pdn"
	"ichannels/internal/soc"
)

// Kind identifies a mitigation.
type Kind int

const (
	// None is the unmitigated baseline.
	None Kind = iota
	// PerCoreVR is mitigation 1: per-core LDO regulators.
	PerCoreVR
	// ImprovedThrottling is mitigation 2: per-thread PHI-only throttling.
	ImprovedThrottling
	// SecureMode is mitigation 3: worst-case guardband pinned.
	SecureMode
)

func (k Kind) String() string {
	switch k {
	case None:
		return "None"
	case PerCoreVR:
		return "Per-core VR"
	case ImprovedThrottling:
		return "Improved Throttling"
	case SecureMode:
		return "Secure-Mode"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Overhead describes the mitigation's cost, as reported in Table 1.
func (k Kind) Overhead() string {
	switch k {
	case PerCoreVR:
		return "11%-13% more area"
	case ImprovedThrottling:
		return "Some design effort"
	case SecureMode:
		return "4%-11% additional power"
	default:
		return "-"
	}
}

// Verdict grades a channel under a mitigation.
type Verdict int

const (
	// Unaffected: the channel still decodes essentially error-free.
	Unaffected Verdict = iota
	// Partial: the channel still exists but its error rate is
	// substantial (establishing it is "much more difficult", §7).
	Partial
	// Mitigated: the channel cannot be established (calibration finds
	// no usable signal, or decoding is at chance).
	Mitigated
)

func (v Verdict) String() string {
	switch v {
	case Unaffected:
		return "unaffected"
	case Partial:
		return "partial"
	case Mitigated:
		return "mitigated"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// MachineOptions returns the soc options that apply mitigation k to a
// processor, including the evaluation's standard noise environment (a
// modest interrupt load plus rdtsc jitter; the per-core-VR mitigation is
// only *partial* because its sub-µs residual TPs drown in exactly this
// noise).
func MachineOptions(k Kind, p model.Processor, seed int64) soc.Options {
	opts := soc.Options{
		Processor:       p,
		RequestedFreq:   p.BaseFreq,
		Noise:           soc.WithRates(300, 50),
		TSCJitterCycles: 150,
		Seed:            seed,
	}
	switch k {
	case PerCoreVR:
		ldo := pdn.DefaultConfig(pdn.LDO)
		opts.PerCoreVR = true
		opts.VROverride = &ldo
	case ImprovedThrottling:
		opts.PerThreadThrottle = true
	case SecureMode:
		opts.SecureMode = true
	}
	return opts
}

// Assessment is the outcome of one (mitigation, channel) cell of Table 1.
type Assessment struct {
	Mitigation Kind
	// Channel is the paper variant graded (zero for other families).
	Channel core.Kind
	Verdict Verdict
	// BER is the measured bit error rate (0.5 ≈ chance when the channel
	// is dead; reported even when calibration failed, as 0.5).
	BER float64
	// CalibrationGap is the worst cluster separation seen during
	// calibration, in cycles (negative = overlapping clusters).
	CalibrationGap float64
	// EffectiveBPS is the error-free goodput estimate:
	// raw rate × (1 − BER) for intuition (0 when mitigated).
	EffectiveBPS float64
}

// berPartial and berDead grade assessment outcomes.
const (
	berPartial = 0.03
	berDead    = 0.35
)

// Evaluate grades one of the paper's variants against one mitigation,
// transmitting a pseudo-random payload of nBits bits.
func Evaluate(k Kind, chKind core.Kind, proc model.Processor, nBits int, seed int64) (*Assessment, error) {
	return evaluateKind(nil, k, chKind, proc, nBits, seed)
}

// evaluateKind is Evaluate drawing its machine from a pool.
func evaluateKind(pool *soc.Pool, k Kind, chKind core.Kind, proc model.Processor, nBits int, seed int64) (*Assessment, error) {
	a, err := EvaluatePooled(pool, k, proc, nBits, seed, func(m *soc.Machine) (*core.Protocol, error) {
		return core.NewProtocol(m, core.DefaultParams(chKind, proc))
	})
	if err != nil {
		return nil, err
	}
	a.Channel = chKind
	return a, nil
}

// calibReps is the calibration depth of every graded channel.
const calibReps = 8

// EvaluatePooled grades any channel family against a mitigation: build
// the mitigated machine (from the pool; nil constructs one), declare the
// channel on it, calibrate (failure means the mitigation killed the
// signal), transmit a pseudo-random payload, and grade the error rate.
// The operation order — acquire, declare, calibrate, then draw payload
// bits from the machine's RNG — is part of the determinism contract:
// recycled machines replay it byte-identically, so the pool only changes
// wall-clock.
func EvaluatePooled(pool *soc.Pool, k Kind, proc model.Processor, nBits int, seed int64, build func(m *soc.Machine) (*core.Protocol, error)) (*Assessment, error) {
	if nBits <= 0 || nBits%2 != 0 {
		return nil, fmt.Errorf("mitigate: nBits must be positive and even, got %d", nBits)
	}
	m, err := pool.Acquire(MachineOptions(k, proc, seed))
	if err != nil {
		return nil, err
	}
	defer pool.Release(m)
	ch, err := build(m)
	if err != nil {
		return nil, err
	}
	a := &Assessment{Mitigation: k}

	gap, err := ch.Calibrate(calibReps)
	if err != nil {
		// No usable signal at all.
		a.Verdict = Mitigated
		a.BER = 0.5
		return a, nil
	}
	a.CalibrationGap = gap

	bits := make([]int, nBits)
	rng := m.Rand()
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	res, err := ch.Transmit(bits)
	if err != nil {
		return nil, err
	}
	a.BER = res.BER
	switch {
	case a.BER >= berDead:
		a.Verdict = Mitigated
	case a.BER > berPartial:
		a.Verdict = Partial
		a.EffectiveBPS = res.ThroughputBPS * (1 - a.BER)
	default:
		a.Verdict = Unaffected
		a.EffectiveBPS = res.ThroughputBPS * (1 - a.BER)
	}
	return a, nil
}

// EvaluateAll builds the full Table 1 matrix for a processor: every
// mitigation × every channel (the SMT channel requires an SMT part).
func EvaluateAll(proc model.Processor, nBits int, seed int64) ([]*Assessment, error) {
	var out []*Assessment
	channels := []core.Kind{core.SameThread, core.SMT, core.CrossCore}
	// One pool across the matrix: the None and ImprovedThrottling and
	// SecureMode cells all share a machine shape, so most of the grid
	// reuses one SoC instead of rebuilding twelve.
	pool := soc.NewPool()
	for _, mk := range []Kind{None, PerCoreVR, ImprovedThrottling, SecureMode} {
		for _, ck := range channels {
			if ck == core.SMT && proc.SMTWays < 2 {
				continue
			}
			if ck == core.CrossCore && proc.Cores < 2 {
				continue
			}
			a, err := evaluateKind(pool, mk, ck, proc, nBits, seed+int64(mk)*17+int64(ck)*3)
			if err != nil {
				return nil, fmt.Errorf("mitigate: %v × %v: %w", mk, ck, err)
			}
			out = append(out, a)
		}
	}
	return out, nil
}
