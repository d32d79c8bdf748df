package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// marshalAggregate renders the aggregate's NDJSON framing — the bytes
// both the CLI and POST /v1/sweeps emit as the final line.
func marshalAggregate(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAggregateLine(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepResumeRecomputesOnlyMissing is the resume acceptance test:
// a sweep killed mid-grid leaves its completed cells in the store, and
// the re-run computes exactly the missing ones while producing
// byte-identical output to an uninterrupted run.
func TestSweepResumeRecomputesOnlyMissing(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		sw := testSweep() // 8 cells
		const cells = 8
		st, err := store.OpenPacked(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.CloseStore(st)
		var calls atomic.Int64
		run := func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
			calls.Add(1)
			return fakeRun(ctx, s, seed)
		}
		opts := func() Options { return Options{BaseSeed: 3, Parallel: 2, Run: run} }

		// Reference: one uninterrupted run, no store.
		ref, err := Run(context.Background(), sw, opts())
		if err != nil {
			t.Fatal(err)
		}
		refAgg := marshalAggregate(t, ref.Aggregate)
		refCells, _ := json.Marshal(ref.Cells)

		// "Kill" the sweep after 3 emitted cells: the OnCell error stops
		// the stream the way a dying process would, except in-flight cells
		// still drain — each of them was persisted before it completed.
		errKilled := errors.New("killed")
		calls.Store(0)
		killed := 0
		// A serial, window-1 pipeline keeps the number of drained in-flight
		// cells strictly below the grid, so the re-run has real work left.
		kopts := Options{BaseSeed: 3, Parallel: 1, Window: 1, Run: run}.WithStore(st)
		kopts.OnCell = func(CellOutcome) error {
			killed++
			if killed >= 3 {
				return errKilled
			}
			return nil
		}
		if _, err := Run(context.Background(), sw, kopts); !errors.Is(err, errKilled) {
			t.Fatalf("killed run returned %v, want %v", err, errKilled)
		}
		survived := int(calls.Load())
		if survived < 3 || survived >= cells {
			t.Fatalf("killed run computed %d cells, want a strict mid-grid subset of %d", survived, cells)
		}

		// Resume: every surviving cell comes from the store, only the
		// missing ones compute, and the output matches the reference
		// byte for byte.
		calls.Store(0)
		res, err := Run(context.Background(), sw, opts().WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		if got := int(calls.Load()); got != cells-survived {
			t.Errorf("resume computed %d cells, want exactly the %d missing", got, cells-survived)
		}
		if res.Cached != survived {
			t.Errorf("resume served %d cells from the store, want %d", res.Cached, survived)
		}
		if got := marshalAggregate(t, res.Aggregate); !bytes.Equal(got, refAgg) {
			t.Errorf("resumed aggregate differs from uninterrupted run:\n%s\n%s", got, refAgg)
		}
		if got, _ := json.Marshal(res.Cells); !bytes.Equal(got, refCells) {
			t.Errorf("resumed cell summaries differ from uninterrupted run:\n%s\n%s", got, refCells)
		}

		// A second resume is a pure replay: zero computes, all cached.
		calls.Store(0)
		res, err = Run(context.Background(), sw, opts().WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 0 || res.Cached != cells {
			t.Errorf("full replay: %d computes, %d cached; want 0/%d", calls.Load(), res.Cached, cells)
		}
		if got := marshalAggregate(t, res.Aggregate); !bytes.Equal(got, refAgg) {
			t.Errorf("replayed aggregate differs from uninterrupted run")
		}
	})
}

// TestSweepWriteOnlyStoreRecomputes: -store without -resume semantics —
// everything recomputes, everything persists.
func TestSweepWriteOnlyStoreRecomputes(t *testing.T) {
	sw := testSweep()
	st, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	run := func(ctx context.Context, s scenario.Scenario, seed int64) (*scenario.Result, error) {
		calls.Add(1)
		return fakeRun(ctx, s, seed)
	}
	for round := 1; round <= 2; round++ {
		calls.Store(0)
		res, err := Run(context.Background(), sw, Options{BaseSeed: 3, Parallel: 2, Run: run}.WithStore(store.WriteOnly(st)))
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 8 || res.Cached != 0 {
			t.Fatalf("round %d: %d computes, %d cached; want 8/0", round, calls.Load(), res.Cached)
		}
	}
	if entries, err := st.List(); err != nil || len(entries) != 8 {
		t.Fatalf("store holds %d entries (%v), want 8", len(entries), err)
	}
}
