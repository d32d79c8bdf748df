package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// testSweep is a small grid exercising scalar and object axes plus a
// filter (Coffee Lake has no SMT, so its smt cells must be dropped).
func testSweep() Sweep {
	return Sweep{
		Name: "unit",
		Base: Scenario{Role: RoleChannel},
		Axes: SweepAxes{
			Processor: []string{"Cannon Lake", "Coffee Lake"},
			Kind:      []string{KindSMT, KindCores},
			Bits:      []int{8, 16},
		},
		Filters: []SweepFilter{{Processor: "Coffee Lake", Kind: KindSMT}},
	}
}

// TestSweepExpansionOrderStable: expansion is the canonical odometer
// order (processor, kind, bits; last axis fastest), filters drop cells
// without perturbing the rest, and repeated expansions are identical.
func TestSweepExpansionOrderStable(t *testing.T) {
	sw := testSweep()
	cells, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2×2×2 = 8 pre-filter, minus the 2 Coffee Lake smt cells.
	want := []string{
		"processor=Cannon Lake kind=smt bits=8",
		"processor=Cannon Lake kind=smt bits=16",
		"processor=Cannon Lake kind=cores bits=8",
		"processor=Cannon Lake kind=cores bits=16",
		"processor=Coffee Lake kind=cores bits=8",
		"processor=Coffee Lake kind=cores bits=16",
	}
	if len(cells) != len(want) {
		t.Fatalf("expanded to %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		got := strings.TrimPrefix(c.Scenario.Name, "unit: ")
		if got != want[i] {
			t.Errorf("cell %d = %q, want %q", i, got, want[i])
		}
		if c.Axes[AxisProcessor] != c.Scenario.Processor || c.Axes[AxisKind] != c.Scenario.Kind {
			t.Errorf("cell %d axis labels %v do not match spec %+v", i, c.Axes, c.Scenario)
		}
	}
	again, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].Scenario.Hash() != cells[i].Scenario.Hash() {
			t.Fatalf("re-expansion diverged at cell %d", i)
		}
	}
}

// TestSweepHashInvariantToAxisKeyOrder: two JSON spellings of one sweep
// with the axes (and top-level) keys in different orders parse to the
// same spec and therefore the same hash; a genuinely different grid
// hashes differently.
func TestSweepHashInvariantToAxisKeyOrder(t *testing.T) {
	a := []byte(`{"base":{"role":"channel"},"axes":{"processor":["Cannon Lake","Haswell"],"bits":[8,16],"kind":["cores"]}}`)
	b := []byte(`{"axes":{"kind":["cores"],"bits":[8,16],"processor":["Cannon Lake","Haswell"]},"base":{"role":"channel"}}`)
	swA, err := ParseSweep(a)
	if err != nil {
		t.Fatal(err)
	}
	swB, err := ParseSweep(b)
	if err != nil {
		t.Fatal(err)
	}
	if swA.Hash() != swB.Hash() {
		t.Errorf("axis key order changed the hash: %s vs %s", swA.Hash(), swB.Hash())
	}
	// Name, base name/seed, and the cap are display/bounding concerns,
	// not identity.
	swC := swA
	swC.Name = "labelled"
	swC.Base.Name = "base-label"
	swC.Base.Seed = 99
	swC.MaxCells = 100
	if swC.Hash() != swA.Hash() {
		t.Errorf("name/seed/cap entered the hash")
	}
	// Marketing vs code name is one processor.
	swD := swA
	swD.Axes.Processor = []string{"Core i3-8121U", "Core i7-4770K"}
	if swD.Hash() != swA.Hash() {
		t.Errorf("marketing names hash differently from code names")
	}
	swE := swA
	swE.Axes.Bits = []int{8, 32}
	if swE.Hash() == swA.Hash() {
		t.Errorf("different grids hash identically")
	}
}

// TestSweepValidateRejects covers the structural failure modes.
func TestSweepValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Sweep)
		want string
	}{
		{"no axes", func(sw *Sweep) { sw.Axes = SweepAxes{} }, "at least one"},
		{"dup axis value", func(sw *Sweep) { sw.Axes.Bits = []int{8, 8} }, "repeats value"},
		{"dup axis value normalized", func(sw *Sweep) {
			sw.Axes.Processor = []string{"Cannon Lake", "Core i3-8121U"}
		}, "repeats value"},
		{"base/axis conflict", func(sw *Sweep) { sw.Base.Kind = KindCores }, "both a base field and an axis"},
		{"bits axis with payload", func(sw *Sweep) { sw.Base.Payload = "hi" }, "exclusive"},
		{"empty filter", func(sw *Sweep) { sw.Filters = append(sw.Filters, SweepFilter{}) }, "empty"},
		{"empty axis value", func(sw *Sweep) { sw.Axes.Kind = []string{KindSMT, ""} }, "non-empty"},
		{"zero bits value", func(sw *Sweep) { sw.Axes.Bits = []int{0, 8} }, "positive"},
		{"negative cap", func(sw *Sweep) { sw.MaxCells = -1 }, "non-negative"},
		{"cap above hard limit", func(sw *Sweep) { sw.MaxCells = MaxSweepCells + 1 }, "hard limit"},
		{"over cap", func(sw *Sweep) { sw.MaxCells = 4 }, "above the cap"},
		{"unknown group axis", func(sw *Sweep) { sw.GroupBy = []string{"noise"} }, "not an axis"},
		{"dup group axis", func(sw *Sweep) { sw.GroupBy = []string{"kind", "kind"} }, "repeats axis"},
		{"filters drop all", func(sw *Sweep) {
			sw.Filters = []SweepFilter{{Processor: "Cannon Lake"}, {Processor: "Coffee Lake"}}
		}, "drop every cell"},
		{"invalid cell", func(sw *Sweep) { sw.Filters = nil }, "add a filter"},
	}
	for _, tc := range cases {
		sw := testSweep()
		tc.mut(&sw)
		err := sw.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := testSweep().Validate(); err != nil {
		t.Errorf("baseline sweep invalid: %v", err)
	}
}

// TestSweepObjectAxes: noise/params axes substitute whole sub-objects
// and label cells with their compact JSON.
func TestSweepObjectAxes(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Role: RoleChannel, Kind: KindCores, Bits: 8},
		Axes: SweepAxes{
			Noise: []Noise{{}, {InterruptsPerSec: 1000}},
		},
	}
	cells, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded to %d cells, want 2", len(cells))
	}
	if cells[0].Axes[AxisNoise] != "{}" {
		t.Errorf("quiet cell label = %q", cells[0].Axes[AxisNoise])
	}
	if cells[0].Scenario.Noise != nil {
		t.Errorf("empty noise axis value should normalize away, got %+v", cells[0].Scenario.Noise)
	}
	if cells[1].Scenario.Noise == nil || cells[1].Scenario.Noise.InterruptsPerSec != 1000 {
		t.Errorf("noise axis not applied: %+v", cells[1].Scenario.Noise)
	}
	if cells[0].Scenario.Hash() == cells[1].Scenario.Hash() {
		t.Errorf("distinct noise cells hash identically")
	}
	if got := sw.EffectiveGroupBy(); len(got) != 1 || got[0] != AxisNoise {
		t.Errorf("EffectiveGroupBy = %v, want [noise]", got)
	}
}

// TestSweepScalarLabelsAreCellValues: a scalar axis labels each cell
// with the normalized cell's own field, however the spec spells the
// value (marketing names, case, padding, aliases), and the count pass
// agrees with the expansion.
func TestSweepScalarLabelsAreCellValues(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Role: RoleMitigation, Bits: 16},
		Axes: SweepAxes{
			Processor:  []string{"Core i3-8121U", "Core i7-4770K", "Skylake-SP"},
			Kind:       []string{" Cores", "SMT "},
			Mitigation: []string{"None", "Per-Core-VR", " securemode"},
		},
	}
	cells, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sw.CountCells(); err != nil || n != len(cells) || n != 18 {
		t.Fatalf("CountCells = %d, %v; expanded %d, want 18", n, err, len(cells))
	}
	for _, c := range cells {
		n := c.Scenario
		for axis, want := range map[string]string{
			AxisProcessor: n.Processor, AxisKind: n.Kind, AxisMitigation: n.Mitigation,
		} {
			if c.Axes[axis] != want {
				t.Errorf("cell %d: %s label %q, cell value %q", c.Index, axis, c.Axes[axis], want)
			}
		}
		if !strings.Contains(n.Name, "processor="+n.Processor+" ") {
			t.Errorf("cell %d name %q lacks its code name %q", c.Index, n.Name, n.Processor)
		}
	}
}

// TestSweepCountAndCap: CountCells reports post-filter size; the
// default cap admits grids up to DefaultMaxSweepCells pre-filter.
func TestSweepCountAndCap(t *testing.T) {
	sw := testSweep()
	n, err := sw.CountCells()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("CountCells = %d, want 6", n)
	}
	// 2 × 2 × 1025 > 4096 must trip the default cap.
	big := testSweep()
	big.Filters = nil
	big.Axes.Kind = []string{KindCores}
	big.Axes.Bits = nil
	noise := make([]Noise, 2049)
	for i := range noise {
		noise[i] = Noise{TSCJitterCycles: int64(i + 1)}
	}
	big.Axes.Noise = noise
	if err := big.Validate(); err == nil || !strings.Contains(err.Error(), "above the cap") {
		t.Errorf("default cap not enforced: %v", err)
	}
	big.MaxCells = MaxSweepCells
	if err := big.Validate(); err != nil {
		t.Errorf("raised cap should admit the grid: %v", err)
	}
}

// TestParseSweepStrict: unknown fields, arrays, and trailing garbage are
// rejected by the shared strict decoder.
func TestParseSweepStrict(t *testing.T) {
	for _, bad := range []string{
		``,
		`[]`,
		`{"base":{"role":"channel"},"axes":{"bits":[8]},"unknown":1}`,
		`{"base":{"role":"channel"},"axes":{"bitz":[8]}}`,
		`{"base":{"role":"channel"},"axes":{"bits":[8]}} extra`,
	} {
		if _, err := ParseSweep([]byte(bad)); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
	sw, err := ParseSweep([]byte(`{"base":{"role":"channel","kind":"cores"},"axes":{"bits":[8,16]},"group_by":["bits"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepSchemaServes: both schemas marshal and the sweep schema
// embeds the scenario schema for its base.
func TestSweepSchemaServes(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(SweepSchemaJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	props, ok := doc["properties"].(map[string]any)
	if !ok {
		t.Fatal("sweep schema has no properties")
	}
	base, ok := props["base"].(map[string]any)
	if !ok || base["title"] != "Scenario" {
		t.Errorf("sweep schema base is not the scenario schema: %v", base)
	}
	for _, key := range []string{"axes", "filters", "group_by", "max_cells"} {
		if _, ok := props[key]; !ok {
			t.Errorf("sweep schema missing %q", key)
		}
	}
}
