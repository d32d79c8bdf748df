//go:build unix && !aix && !solaris

package store

// Many openers on one directory: a live writer's active segment is
// locked, so another opener indexes it without repairing it and another
// store's gc never rewrites or deletes it; what one opener writes after
// another opened reaches the other through its rescans.

import (
	"encoding/binary"
	"os"
	"testing"
)

// TestGCByAnotherOpenerKeepsLiveWrites: opener B's gc, even with a
// budget that evicts everything it may, must not delete the segment
// opener A is still appending to — A's later puts would land in an
// unlinked file and vanish.
func TestGCByAnotherOpenerKeepsLiveWrites(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := fillPacked(t, a, 3)

	b, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.GCWith(GCOptions{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.RemovedOverBudget != 0 || rep.Kept != 3 {
		t.Errorf("gc report %+v: the live segment's entries are not gc's to evict", rep)
	}

	var after []Key
	for seed := int64(101); seed <= 103; seed++ {
		key := Key{Hash: "fedcba9876543210", Seed: seed}
		if err := a.Put(key, testResult(seed)); err != nil {
			t.Fatal(err)
		}
		after = append(after, key)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lost := 0
	for _, key := range after {
		if _, ok, err := c.Get(key); !ok || err != nil {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d puts made after the other opener's gc are gone after reopen", lost, len(after))
	}
	for _, key := range before {
		if _, ok, err := c.Get(key); !ok || err != nil {
			t.Errorf("entry %s written before the gc: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestOpenLeavesLiveSegmentAlone: opening and listing a directory whose
// active segment another opener holds — with a record in flight at its
// tail — serves the complete records, truncates nothing and writes no
// sidecar for that segment.
func TestOpenLeavesLiveSegmentAlone(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fillPacked(t, a, 3)
	// Half a frame past the last record: what a reader sees while the
	// writer's next append is under way.
	seg := a.segPath(a.active.id)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var partial [8]byte
	binary.BigEndian.PutUint32(partial[:], 200)
	if _, err := f.Write(partial[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	b, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 {
		t.Fatalf("listed %d entries of the live segment, want 3", len(ls))
	}
	now, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if now.Size() != info.Size() {
		t.Fatalf("opening changed the live segment: %d -> %d bytes", info.Size(), now.Size())
	}
	if _, err := os.Stat(a.idxPath(a.active.id)); !os.IsNotExist(err) {
		t.Fatalf("opening wrote a sidecar for the live segment (err=%v)", err)
	}
}

// TestOpenerSeesLaterWrites: records another opener stores after this
// one opened — in a segment created since, then appended to and sealed
// — are served by a Get miss's rescan and counted and evicted by gc.
func TestOpenerSeesLaterWrites(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, b, 3)

	// A miss rescans at most once per refreshEvery; make one due.
	a.lastRefresh.Store(0)
	for _, key := range keys {
		if _, ok, err := a.Get(key); !ok || err != nil {
			t.Fatalf("entry %s in the other opener's new segment: ok=%v err=%v", key, ok, err)
		}
	}
	later := Key{Hash: "fedcba9876543210", Seed: 4}
	if err := b.Put(later, testResult(later.Seed)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// gc rescans unconditionally: the record appended to a segment A
	// already indexed counts toward the budget too.
	rep, err := a.GCWith(GCOptions{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedOverBudget != 4 || rep.Kept != 0 {
		t.Fatalf("gc report %+v: want the other opener's 4 entries evicted", rep)
	}
}

// TestOpenerReloadsReplacedSegment: when another opener's gc compacts a
// segment away and a third reuses its id for a new file, a rescan drops
// what it indexed from the old file and loads both the relocated
// records and the new file's.
func TestOpenerReloadsReplacedSegment(t *testing.T) {
	dir := t.TempDir()
	// Opened on the empty directory, c will create segment 1 again.
	c, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, a, 3)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// b evicts one entry, so compaction moves the other two out of
	// segment 1 and deletes it.
	b, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ls {
		total += e.Size + 4
	}
	if rep, err := b.GCWith(GCOptions{MaxBytes: total - 1}); err != nil || rep.RemovedOverBudget != 1 {
		t.Fatalf("gc: %+v, %v", rep, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := Key{Hash: "fedcba9876543210", Seed: 9}
	if err := c.Put(fresh, testResult(fresh.Seed)); err != nil {
		t.Fatal(err)
	}
	if c.active.id != 1 {
		t.Fatalf("c appended to segment %d, want the reused id 1", c.active.id)
	}

	d.lastRefresh.Store(0)
	for _, key := range append(keys[1:], fresh) {
		if _, ok, err := d.Get(key); !ok || err != nil {
			t.Errorf("entry %s after the replacement: ok=%v err=%v", key, ok, err)
		}
	}
}
