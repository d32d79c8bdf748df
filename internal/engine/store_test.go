package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// countingStoreRun is a cheap deterministic executor that counts
// invocations, for asserting what the store saved.
func countingStoreRun(calls *atomic.Int64) ScenarioRunFunc {
	return func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		calls.Add(1)
		return &scenario.Result{
			Role: s.Role, Processor: s.Processor, Kind: s.Kind,
			Hash: s.Hash(), Seed: seed, Bits: s.Bits,
			BER: 0.125, ThroughputBPS: float64(100 * s.Bits),
		}, nil
	}
}

// storeGrid yields n distinct valid channel scenarios.
func storeGrid(n int) func() (scenario.Scenario, bool) {
	i := 0
	return func() (scenario.Scenario, bool) {
		if i >= n {
			return scenario.Scenario{}, false
		}
		s := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 2 + 2*i}
		i++
		return s, true
	}
}

// collectBytes marshals every emitted result in stream order.
func collectBytes(t *testing.T, opts StreamOptions) (*StreamStats, [][]byte) {
	t.Helper()
	var lines [][]byte
	opts.Emit = func(o ScenarioOutcome) error {
		if o.Err != nil {
			t.Fatalf("outcome error: %v", o.Err)
		}
		b, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
		return nil
	}
	stats, err := StreamScenarios(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return stats, lines
}

// corruptOneRecord damages the first record of a store directory's
// first segment on disk.
func corruptOneRecord(t *testing.T, dir string) {
	t.Helper()
	seg := filepath.Join(dir, store.SegmentsDirName, "00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := store.ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Entries) == 0 {
		t.Fatal("no segment records to corrupt")
	}
	e := sc.Entries[0]
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xff}, e.Offset+e.Length/2); err != nil {
		t.Fatal(err)
	}
}

// TestStreamStoreFetchOrCompute: a cold store computes and persists
// every scenario; a warm store serves all of them without a single
// compute, with byte-identical results; a corrupted entry degrades to
// a recompute of just that cell.
func TestStreamStoreFetchOrCompute(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		const n = 6
		dir := t.TempDir()
		st, err := store.OpenPacked(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.CloseStore(st)
		var calls atomic.Int64

		stats, cold := collectBytes(t, StreamOptions{
			Next: storeGrid(n), BaseSeed: 9, Parallel: 3,
			Run: countingStoreRun(&calls), Store: st,
		})
		if calls.Load() != n || stats.Cached != 0 || stats.StoreErrors != 0 {
			t.Fatalf("cold run: %d computes, %d cached, %d store errors; want %d/0/0",
				calls.Load(), stats.Cached, stats.StoreErrors, n)
		}
		if entries, err := st.List(); err != nil || len(entries) != n {
			t.Fatalf("store holds %d entries (%v), want %d", len(entries), err, n)
		}

		calls.Store(0)
		stats, warm := collectBytes(t, StreamOptions{
			Next: storeGrid(n), BaseSeed: 9, Parallel: 3,
			Run: countingStoreRun(&calls), Store: st,
		})
		if calls.Load() != 0 || stats.Cached != n {
			t.Fatalf("warm run: %d computes, %d cached; want 0/%d", calls.Load(), stats.Cached, n)
		}
		for i := range cold {
			if !bytes.Equal(cold[i], warm[i]) {
				t.Fatalf("result %d differs between cold and warm runs:\n%s\n%s", i, cold[i], warm[i])
			}
		}

		// Corrupt one entry: only that cell recomputes, and the stream
		// reports the degraded store operation without failing anything.
		corruptOneRecord(t, dir)
		calls.Store(0)
		stats, repaired := collectBytes(t, StreamOptions{
			Next: storeGrid(n), BaseSeed: 9, Parallel: 3,
			Run: countingStoreRun(&calls), Store: st,
		})
		if calls.Load() != 1 || stats.Cached != n-1 || stats.StoreErrors != 1 {
			t.Fatalf("corrupt-entry run: %d computes, %d cached, %d store errors; want 1/%d/1",
				calls.Load(), stats.Cached, stats.StoreErrors, n-1)
		}
		for i := range cold {
			if !bytes.Equal(cold[i], repaired[i]) {
				t.Fatalf("result %d differs after repair", i)
			}
		}
	})
}

// TestRunScenariosWithStore: the collect-all wrapper threads the store
// through, and outcomes carry the Cached marker into the NDJSON wire
// form.
func TestRunScenariosWithStore(t *testing.T) {
	st, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []scenario.Scenario{
		{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 4},
		{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 6},
	}
	var calls atomic.Int64
	opts := ScenarioOptions{Scenarios: specs, BaseSeed: 2, Run: countingStoreRun(&calls)}.WithStore(st)
	if _, err := RunScenarios(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	batch, err := RunScenarios(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("warm batch computed %d scenarios, want 0", calls.Load())
	}
	for i, r := range batch.Results {
		if !r.Cached {
			t.Errorf("results[%d] not marked cached", i)
		}
	}
	var buf bytes.Buffer
	if err := batch.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"cached":true`); got != len(specs) {
		t.Errorf("NDJSON carries %d cached markers, want %d:\n%s", got, len(specs), buf.String())
	}
}
