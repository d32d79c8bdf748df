package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLegacy writes key's envelope the way the per-file layout did,
// to dir/<hash[:2]>/<hash>-<seed>.json, and returns the file's path.
func writeLegacy(t *testing.T, dir string, key Key) string {
	t.Helper()
	data, err := EncodeEnvelope(key, testResult(key.Seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hash[:2], key.String()+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenRefusesUnmigratedCorpus: a directory of per-file entries and
// no segments is not opened as an empty store — the error names `store
// pack`, and once pack has run the same open serves every entry.
func TestOpenRefusesUnmigratedCorpus(t *testing.T) {
	dir := t.TempDir()
	key := Key{Hash: "0123456789abcdef", Seed: 7}
	writeLegacy(t, dir, key)
	if p, err := OpenPacked(dir); err == nil || !strings.Contains(err.Error(), "store pack") {
		if p != nil {
			p.Close()
		}
		t.Fatalf("open of a per-file corpus: err=%v, want a pointer to `store pack`", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentsDirName)); !os.IsNotExist(err) {
		t.Fatalf("the refused open created segments/ (err=%v)", err)
	}
	if _, err := Pack(dir); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok, err := p.Get(key); !ok || err != nil {
		t.Fatalf("packed entry: ok=%v err=%v", ok, err)
	}
}

// TestPackMigratesCorpus: every per-file entry lands in segments with
// identical payload bytes, and the per-file originals disappear.
func TestPackMigratesCorpus(t *testing.T) {
	dir := t.TempDir()
	var keys []Key
	paths := map[Key]string{}
	for i := 1; i <= 6; i++ {
		key := Key{Hash: "0123456789abcdef", Seed: int64(i)}
		paths[key] = writeLegacy(t, dir, key)
		keys = append(keys, key)
	}
	// Snapshot the canonical bytes before migrating.
	want := map[Key][]byte{}
	for _, key := range keys {
		data, err := os.ReadFile(paths[key])
		if err != nil {
			t.Fatal(err)
		}
		want[key] = data
	}

	rep, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packed != 6 || rep.Skipped != 0 || rep.AlreadyPacked != 0 {
		t.Fatalf("pack report %+v: want 6 packed", rep)
	}
	if rep.Segments < 1 {
		t.Fatalf("pack report %+v: no segments", rep)
	}
	// Per-file originals are gone (shard dirs removed too).
	for _, key := range keys {
		if _, err := os.Stat(paths[key]); !os.IsNotExist(err) {
			t.Fatalf("per-file entry %s survived the migration (err=%v)", key, err)
		}
	}
	if _, err := os.Stat(filepath.Dir(paths[keys[0]])); !os.IsNotExist(err) {
		t.Fatalf("empty shard directory survived the migration (err=%v)", err)
	}
	// The packed corpus serves byte-identical envelopes.
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, key := range keys {
		data, ok, err := p.GetObject(key)
		if !ok || err != nil {
			t.Fatalf("migrated entry %s: ok=%v err=%v", key, ok, err)
		}
		if string(data) != string(want[key]) {
			t.Fatalf("entry %s bytes changed across migration", key)
		}
	}
}

// TestPackIsIdempotent: re-running pack on an already-packed corpus
// (plus one freshly recreated per-file duplicate) finishes the job
// without duplicating records.
func TestPackIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	key := Key{Hash: "0123456789abcdef", Seed: 1}
	writeLegacy(t, dir, key)
	if _, err := Pack(dir); err != nil {
		t.Fatal(err)
	}
	// A pure re-run is a no-op.
	rep, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packed != 0 || rep.AlreadyPacked != 0 {
		t.Fatalf("re-pack report %+v: want a no-op", rep)
	}
	// Recreate the per-file duplicate (the crash-mid-pack shape: bytes
	// already in a segment, file not yet removed) and re-run.
	path := writeLegacy(t, dir, key)
	rep, err = Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlreadyPacked != 1 || rep.Packed != 0 {
		t.Fatalf("re-pack report %+v: want 1 already-packed", rep)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("duplicate per-file entry survived")
	}
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ls, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1 {
		t.Fatalf("%d entries after double pack, want 1", len(ls))
	}
}

// TestPackLeavesCorruptEntriesInPlace: a per-file entry that fails
// verification is reported and left for gc, never migrated.
func TestPackLeavesCorruptEntriesInPlace(t *testing.T) {
	dir := t.TempDir()
	good := Key{Hash: "0123456789abcdef", Seed: 1}
	bad := Key{Hash: "0123456789abcdef", Seed: 2}
	writeLegacy(t, dir, good)
	badPath := writeLegacy(t, dir, bad)
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, flipResultByte(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packed != 1 || rep.Skipped != 1 || len(rep.Problems) != 1 {
		t.Fatalf("pack report %+v: want 1 packed, 1 skipped with its problem", rep)
	}
	if _, err := os.Stat(badPath); err != nil {
		t.Fatalf("corrupt entry removed instead of left in place: %v", err)
	}
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok, err := p.Get(good); !ok || err != nil {
		t.Fatalf("good entry after pack: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := p.Get(bad); ok {
		t.Fatal("corrupt entry migrated")
	}
	// gc reports the leftover as a foreign file and leaves it alone.
	gcRep, err := p.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gcRep.Skipped != 1 {
		t.Fatalf("gc report %+v: want the un-migrated file skipped", gcRep)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentsDirName)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBenchSmoke: the bench harness end to end at toy scale, sane
// numbers.
func TestStoreBenchSmoke(t *testing.T) {
	rep, err := RunBench(BenchOptions{Entries: 64, Reads: 32, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 64 || rep.Reads != 32 {
		t.Fatalf("bench sized wrong: %+v", rep)
	}
	if rep.WriteNSPerOp <= 0 || rep.ReadNSPerOp <= 0 || rep.GCNS <= 0 || rep.Bytes <= 0 {
		t.Fatalf("bench has non-positive measurements: %+v", rep)
	}
	if rep.ReadP95NS < rep.ReadNSPerOp/10 {
		t.Fatalf("p95 %.0f implausibly below mean %.0f", rep.ReadP95NS, rep.ReadNSPerOp)
	}
}
