// Package core implements IChannels — the paper's primary contribution:
// covert channels that communicate through the multi-level throttling
// periods of the processor's current management mechanisms. Three channel
// variants are provided, matching the paper's §4:
//
//   - IccThreadCovert: sender and receiver share one hardware thread; the
//     receiver's 512b_Heavy measurement loop reveals how far the voltage
//     had already ramped for the sender's PHI (Multi-Throttling-Thread).
//   - IccSMTcovert: sender and receiver are SMT siblings; the receiver's
//     scalar loop is slowed by the core-wide IDQ throttle for a period
//     proportional to the sender's PHI intensity (Multi-Throttling-SMT).
//   - IccCoresCovert: sender and receiver sit on different cores; the
//     shared regulator serializes their voltage transitions, so the
//     receiver's own throttling period embeds the sender's
//     (Multi-Throttling-Cores).
//
// Each transaction carries two bits, encoded as one of four PHI intensity
// levels (paper Fig. 3), and transactions are paced by the 650 µs license
// reset-time.
//
// The package also holds the slot protocol every covert channel in the
// repository runs on (protocol.go): a Protocol declares a channel's slot
// schedule, its sender's per-slot step, its receiver's per-slot reading
// and its decoder rule, and one runner, one Calibrate/Transmit and one
// Result serve the three variants here, the adopted families in
// internal/channels and the baselines in internal/baselines alike.
package core

import (
	"fmt"

	"ichannels/internal/isa"
)

// Symbol is a 2-bit covert symbol (0..3, i.e. bit patterns 00..11).
type Symbol int

// NumSymbols is the symbol alphabet size (2 bits per transaction).
const NumSymbols = 4

// Valid reports whether s is within the alphabet.
func (s Symbol) Valid() bool { return s >= 0 && s < NumSymbols }

// Bits returns the symbol's two bits, most significant first
// (send_bits[i+1:i] in the paper's pseudo-code).
func (s Symbol) Bits() (hi, lo int) { return int(s) >> 1 & 1, int(s) & 1 }

// SymbolFromBits packs two bits into a symbol.
func SymbolFromBits(hi, lo int) Symbol { return Symbol((hi&1)<<1 | lo&1) }

// Class returns the PHI intensity class encoding the symbol, per the
// paper's Fig. 3:
//
//	00 → 128b_Heavy (level L4)
//	01 → 256b_Light (level L3)
//	10 → 256b_Heavy (level L2)
//	11 → 512b_Heavy (level L1)
func (s Symbol) Class() isa.Class {
	switch s {
	case 0:
		return isa.Vec128Heavy
	case 1:
		return isa.Vec256Light
	case 2:
		return isa.Vec256Heavy
	case 3:
		return isa.Vec512Heavy
	default:
		panic(fmt.Sprintf("core: invalid symbol %d", int(s)))
	}
}

// Level returns the paper's level name for the symbol (L4..L1; L1 is the
// most intense).
func (s Symbol) Level() string {
	return [NumSymbols]string{"L4", "L3", "L2", "L1"}[s]
}

// Kernel returns the sender loop kernel for the symbol.
func (s Symbol) Kernel() isa.Kernel { return isa.KernelFor(s.Class()) }

// SymbolsFromBits converts a bit slice (len must be even) into the symbol
// stream that transmits it, two bits per symbol, in order (hi, lo).
func SymbolsFromBits(bits []int) ([]Symbol, error) {
	if len(bits)%2 != 0 {
		return nil, fmt.Errorf("core: bit stream length %d is odd; symbols carry 2 bits", len(bits))
	}
	out := make([]Symbol, 0, len(bits)/2)
	for i := 0; i < len(bits); i += 2 {
		if bits[i]&^1 != 0 || bits[i+1]&^1 != 0 {
			return nil, fmt.Errorf("core: bit stream contains non-bit value at %d", i)
		}
		out = append(out, SymbolFromBits(bits[i], bits[i+1]))
	}
	return out, nil
}

// BitsFromSymbols flattens symbols back into bits (hi, lo per symbol).
func BitsFromSymbols(syms []Symbol) []int {
	out := make([]int, 0, 2*len(syms))
	for _, s := range syms {
		hi, lo := s.Bits()
		out = append(out, hi, lo)
	}
	return out
}

// Kind selects the channel variant.
type Kind int

const (
	// SameThread is IccThreadCovert (paper §4.1).
	SameThread Kind = iota
	// SMT is IccSMTcovert (paper §4.2).
	SMT
	// CrossCore is IccCoresCovert (paper §4.3).
	CrossCore
)

func (k Kind) String() string {
	switch k {
	case SameThread:
		return "IccThreadCovert"
	case SMT:
		return "IccSMTcovert"
	case CrossCore:
		return "IccCoresCovert"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ReceiverKernel returns the measurement loop the receiver runs for this
// channel kind (paper Fig. 3): 512b_Heavy on the same thread, a scalar
// 64b loop across SMT, and 128b_Heavy across cores.
func (k Kind) ReceiverKernel() isa.Kernel {
	switch k {
	case SameThread:
		return isa.Loop512Heavy
	case SMT:
		return isa.Loop64b
	case CrossCore:
		return isa.Loop128Heavy
	default:
		panic(fmt.Sprintf("core: invalid channel kind %d", int(k)))
	}
}

// Ascending reports whether the receiver's measurement grows with symbol
// intensity. Across SMT and cores, a more intense sender PHI throttles the
// receiver longer (ascending). On the same thread the relationship
// inverts: the more intense the sender's PHI, the less voltage remains to
// ramp for the receiver's 512b_Heavy loop (paper §4.1.2).
func (k Kind) Ascending() bool { return k != SameThread }
