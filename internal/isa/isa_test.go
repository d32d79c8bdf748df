package isa

import (
	"testing"
	"testing/quick"
)

func TestClassOrderingAndCount(t *testing.T) {
	if NumClasses != 7 {
		t.Fatalf("NumClasses = %d, want 7 (paper §5.5)", NumClasses)
	}
	all := AllClasses()
	if len(all) != NumClasses {
		t.Fatalf("AllClasses returned %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("AllClasses not strictly increasing")
		}
	}
}

func TestClassWidths(t *testing.T) {
	cases := map[Class]int{
		Scalar64: 64, Vec128Light: 128, Vec128Heavy: 128,
		Vec256Light: 256, Vec256Heavy: 256, Vec512Light: 512, Vec512Heavy: 512,
	}
	for c, w := range cases {
		if c.Width() != w {
			t.Errorf("%v width = %d, want %d", c, c.Width(), w)
		}
	}
	if Class(99).Width() != 0 {
		t.Error("invalid class must have zero width")
	}
}

func TestClassHeavy(t *testing.T) {
	heavy := map[Class]bool{
		Scalar64: false, Vec128Light: false, Vec128Heavy: true,
		Vec256Light: false, Vec256Heavy: true, Vec512Light: false, Vec512Heavy: true,
	}
	for c, h := range heavy {
		if c.Heavy() != h {
			t.Errorf("%v heavy = %v, want %v", c, c.Heavy(), h)
		}
	}
}

func TestClassPHIAndVector(t *testing.T) {
	if Scalar64.PHI() || Scalar64.Vector() {
		t.Error("scalar must not be PHI or vector")
	}
	for _, c := range AllClasses()[1:] {
		if !c.PHI() || !c.Vector() {
			t.Errorf("%v must be PHI and vector", c)
		}
	}
}

func TestClassAVX(t *testing.T) {
	if Vec128Heavy.AVX() {
		t.Error("128-bit SSE-class ops are not AVX power-gated")
	}
	if !Vec256Light.AVX() || !Vec512Heavy.AVX() {
		t.Error("256/512-bit classes exercise the AVX gate")
	}
	if Vec256Heavy.AVX512() {
		t.Error("256-bit is not AVX-512")
	}
	if !Vec512Light.AVX512() {
		t.Error("512-bit is AVX-512")
	}
}

func TestClassStringInvalid(t *testing.T) {
	if Class(-1).String() != "Class(-1)" {
		t.Fatalf("got %q", Class(-1).String())
	}
	if Class(-1).Valid() || Class(NumClasses).Valid() {
		t.Fatal("out-of-range classes must be invalid")
	}
}

func TestKernelValidate(t *testing.T) {
	good := LoopKernel(Vec256Heavy, 100)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := []Kernel{
		{Name: "c", Class: Class(99), UopsPerIter: 10, BaseUPC: 1, CdynScale: 1},
		{Name: "u", Class: Scalar64, UopsPerIter: 0, BaseUPC: 1, CdynScale: 1},
		{Name: "r0", Class: Scalar64, UopsPerIter: 10, BaseUPC: 0, CdynScale: 1},
		{Name: "r5", Class: Scalar64, UopsPerIter: 10, BaseUPC: 5, CdynScale: 1},
		{Name: "s", Class: Scalar64, UopsPerIter: 10, BaseUPC: 1, CdynScale: 0},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q should fail validation", k.Name)
		}
	}
}

func TestLoopKernelDefaults(t *testing.T) {
	k := LoopKernel(Scalar64, 0)
	if k.UopsPerIter != 100 {
		t.Fatalf("default body = %d", k.UopsPerIter)
	}
	if k.BaseUPC != 2 {
		t.Fatalf("scalar UPC = %g", k.BaseUPC)
	}
	if LoopKernel(Vec512Heavy, 50).BaseUPC != 1 {
		t.Fatal("PHI loops sustain 1 uop/cycle")
	}
}

func TestCyclesPerIter(t *testing.T) {
	k := Kernel{Name: "k", Class: Scalar64, UopsPerIter: 200, BaseUPC: 2, CdynScale: 1}
	if got := k.CyclesPerIter(); got != 100 {
		t.Fatalf("CyclesPerIter = %g", got)
	}
}

func TestKernelForEveryClass(t *testing.T) {
	for _, c := range AllClasses() {
		k := KernelFor(c)
		if k.Class != c {
			t.Errorf("KernelFor(%v).Class = %v", c, k.Class)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("KernelFor(%v) invalid: %v", c, err)
		}
	}
}

func TestKernelForInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KernelFor(Class(42))
}

// Property: for any valid class index, widths are nondecreasing in class
// order and heavy classes have the same width as the light class below.
func TestPropertyWidthMonotone(t *testing.T) {
	f := func(raw uint8) bool {
		c := Class(int(raw) % NumClasses)
		if c == Scalar64 {
			return c.Width() == 64
		}
		return c.Width() >= (c - 1).Width()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
