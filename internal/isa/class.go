// Package isa models the instruction-set properties that matter to current
// management: the computational-intensity class of an instruction stream
// (operand width × heavy/light operation) and loop kernels built from those
// classes.
//
// The paper (§4) partitions the instruction set into seven classes by width
// (64-bit scalar, 128/256/512-bit vector) and heaviness (Heavy = floating
// point or multiplication; Light = everything else). The class determines
// the dynamic capacitance Cdyn the stream exercises and therefore the
// voltage guardband — and throttling period — the processor applies.
package isa

import "fmt"

// Class is a computational-intensity class of an instruction stream,
// ordered by increasing intensity. The ordering is load-bearing: the
// PMU's guardband tables are indexed by Class and must be monotone in it.
type Class int

// The seven classes from the paper's characterization (§5.5), in
// increasing order of computational intensity.
const (
	Scalar64 Class = iota // 64-bit scalar integer/logic (e.g. ADD64, MOV64)
	Vec128Light
	Vec128Heavy
	Vec256Light
	Vec256Heavy
	Vec512Light
	Vec512Heavy
	NumClasses int = iota
)

var classNames = [NumClasses]string{
	"64b", "128b_Light", "128b_Heavy", "256b_Light", "256b_Heavy", "512b_Light", "512b_Heavy",
}

func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Valid reports whether c is one of the seven defined classes.
func (c Class) Valid() bool { return c >= Scalar64 && int(c) < NumClasses }

// Width returns the operand width in bits.
func (c Class) Width() int {
	switch c {
	case Scalar64:
		return 64
	case Vec128Light, Vec128Heavy:
		return 128
	case Vec256Light, Vec256Heavy:
		return 256
	case Vec512Light, Vec512Heavy:
		return 512
	default:
		return 0
	}
}

// Heavy reports whether the class contains "heavy" operations: any
// instruction requiring the floating-point unit (ADDPD, SUBPS, ...) or any
// multiplication (paper §4). Light covers non-multiplication integer
// arithmetic, logic, shuffle, and blend.
func (c Class) Heavy() bool {
	switch c {
	case Vec128Heavy, Vec256Heavy, Vec512Heavy:
		return true
	default:
		return false
	}
}

// Vector reports whether the class uses the vector (AVX/SSE) units at all.
func (c Class) Vector() bool { return c != Scalar64 }

// AVX reports whether the class exercises a power-gated AVX unit
// (256-bit or wider on Skylake-and-later parts).
func (c Class) AVX() bool { return c.Width() >= 256 }

// AVX512 reports whether the class exercises the AVX-512 unit.
func (c Class) AVX512() bool { return c.Width() >= 512 }

// PHI reports whether the class is a power-hungry-instruction class, i.e.
// requires a voltage guardband above the scalar baseline.
func (c Class) PHI() bool { return c > Scalar64 }

// AllClasses returns the seven classes in increasing intensity order.
func AllClasses() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}
