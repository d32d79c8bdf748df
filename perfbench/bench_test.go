package main

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ichannels/internal/sweep"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(7)), 2*time.Second)
	b := schedule(rand.New(rand.NewSource(7)), 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := schedule(rand.New(rand.NewSource(8)), 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := map[int]int{}
	for i, x := range a {
		counts[x.stage]++
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due at %v, before its predecessor at %v", i, x.due, a[i-1].due)
		}
	}
	// Expected counts: rate × stage length, within 15%.
	d := 2.0
	want := map[int]float64{
		stageLight: lightRPS * d * stageShares[0],
		stageHeavy: heavyRPS * d * stageShares[1],
		stageRamp:  (lightRPS + rampTopRPS) / 2 * d * stageShares[2],
	}
	for stage, w := range want {
		if got := float64(counts[stage]); got < 0.85*w || got > 1.15*w {
			t.Errorf("stage %d: %v arrivals, want about %v", stage, got, w)
		}
	}
}

// A slow response delays the requests queued behind it; their latency
// counts from when they were due, not from when they were sent.
func TestLatencyFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	// One more arrival than there are connections, all due at once
	// (within 2 ms): the last waits a whole service time for a
	// connection.
	var arrivals []arrival
	for i := 0; i <= senders; i++ {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * time.Millisecond})
	}
	results, _ := openLoop(arrivals, func(int) ([]byte, bool) {
		time.Sleep(service)
		return nil, true
	}, func() {})
	if len(results) != len(arrivals) {
		t.Fatalf("%d results for %d arrivals", len(results), len(arrivals))
	}
	last := results[len(results)-1]
	slack := time.Duration(senders) * time.Millisecond
	if wait := last.sent - last.due; wait < service-slack {
		t.Fatalf("the last request waited %v for a connection, want at least %v", wait, service-slack)
	}
	if got, want := last.latency(), last.done-last.due; got != want {
		t.Fatalf("latency %v, want done−due %v", got, want)
	}
	if last.latency() < 2*service-slack {
		t.Fatalf("latency %v leaves out the time spent waiting for a connection", last.latency())
	}
}

func TestLedgerSumsToWallClock(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	tr := &tracer{ids: map[string]int64{}}
	root := tr.add(span{Name: "sweep.run", Start: 0, End: ms(100), ID: 1})
	// Two workers: overlapping cells, each with store and run spans.
	tr.addChild(span{Name: "engine.cell", Start: 0, End: ms(60), ID: 10}, root)
	tr.addChild(span{Name: "engine.cell", Start: ms(10), End: ms(90), ID: 11}, root)
	tr.add(span{Name: "store.get", Start: ms(1), End: ms(5), ID: 10})
	tr.add(span{Name: "scenario.run", Start: ms(5), End: ms(50), ID: 10})
	tr.add(span{Name: "store.put", Start: ms(50), End: ms(59), ID: 10})
	tr.add(span{Name: "scenario.run", Start: ms(12), End: ms(88), ID: 11})
	tr.add(span{Name: "store.get", Start: ms(200), End: ms(201), ID: 99}) // no cell: outside the ledger
	tr.link(map[string]string{"store.get": "engine.cell", "store.put": "engine.cell", "scenario.run": "engine.cell"})
	self := selfTimes(tr.spans)
	if got := self[root]; got != 10*time.Millisecond {
		t.Errorf("sweep.run self time %v, want the 10ms its cells leave uncovered", got)
	}
	total := 0.1 * 2 // 100 ms of wall-clock × 2 slots
	l := newLedger("test", total, tr.spans, self, "sweep.run", false)
	parts := 0.0
	for _, v := range l.Parts {
		parts += v
	}
	if d := parts + l.Unattributed - l.Total; d > 1e-12 || d < -1e-12 {
		t.Fatalf("parts %v + unattributed %v != total %v", parts, l.Unattributed, l.Total)
	}
	want := map[string]float64{"store.get": 0.004, "scenario.run": 0.121, "store.put": 0.009, "engine.cell": 0.006}
	for name, w := range want {
		if d := l.Parts[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: %v s, want %v s", name, l.Parts[name], w)
		}
	}
	if d := l.Unattributed - (total - 0.14); d > 1e-9 || d < -1e-9 {
		t.Errorf("unattributed %v s, want %v s", l.Unattributed, total-0.14)
	}
}

func TestAnchorKeepsDurationAndContainsChildren(t *testing.T) {
	tr := &tracer{ids: map[string]int64{}}
	// Emitted late (at 100) with a 30-unit slot; its children ended at 50.
	tr.add(span{Name: "engine.cell", Start: 70, End: 100, ID: 1})
	tr.add(span{Name: "store.get", Start: 25, End: 30, ID: 1})
	tr.add(span{Name: "scenario.run", Start: 30, End: 50, ID: 1})
	tr.anchor("engine.cell")
	if c := tr.spans[0]; c.Start != 20 || c.End != 50 {
		t.Fatalf("anchored cell [%d, %d], want [20, 50]", c.Start, c.End)
	}
}

func TestDigestCheckFailsOnFlippedByte(t *testing.T) {
	refs, err := loadReferences("references.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := expandGrid(sliceGrid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), specs[0].sw, sweep.Options{BaseSeed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var agg bytes.Buffer
	if err := res.WriteAggregateLine(&agg); err != nil {
		t.Fatal(err)
	}
	if err := refs.check(specs[0].name, 1, agg.Bytes()); err != nil {
		t.Fatalf("unmodified aggregate: %v", err)
	}
	b := agg.Bytes()
	b[len(b)/2] ^= 1
	if err := refs.check(specs[0].name, 1, b); err == nil {
		t.Fatal("a flipped byte passed the digest check")
	}
	if err := refs.check(specs[0].name, baseSeedPool+1, agg.Bytes()); err == nil {
		t.Fatal("a base seed without a reference passed the digest check")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so percentile must sort
		}
		return out
	}
	if p := percentile(xs(1000), 0.99); p.Q != 0.99 || p.Value != 990 || p.N != 1000 {
		t.Errorf("n=1000 p99: %+v, want value 990 at q 0.99", p)
	}
	if p := percentile(xs(500), 0.99); p.Q != 0.98 || p.Value != 490 {
		t.Errorf("n=500 p99: %+v, want the fallback p98 = 490", p)
	}
	if p := percentile(xs(15), 0.5); p.Value != 5 {
		t.Errorf("n=15 p50: %+v, want 5 (ten samples beyond it)", p)
	}
	if p := percentile(xs(10), 0.5); p.Value != 0 || p.N != 10 {
		t.Errorf("n=10: %+v, want no published value", p)
	}
}

func TestPickBaseSeeds(t *testing.T) {
	a, b := pickBaseSeeds(3, 4), pickBaseSeeds(3, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed picked different base seeds")
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if s < 1 || s > baseSeedPool || seen[s] {
			t.Fatalf("base seeds %v: want distinct values in 1..%d", a, baseSeedPool)
		}
		seen[s] = true
	}
}
