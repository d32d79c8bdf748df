package ichannels_test

// Migration conformance: a corpus in the per-file layout earlier
// versions wrote, migrated with `store pack`, must serve a resumed run
// and a fresh server with byte-identical output — cold == migrated,
// every post-migration cell marked cached. This is the promise that
// lets an operator pack a legacy corpus without anyone downstream
// noticing.

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ichannels/internal/store"
)

const migrationSpec = "examples/sweeps/specs/crosscore_noise.json"

func TestStorePackMigrationConformance(t *testing.T) {
	storeDir := t.TempDir()
	args := []string{"sweep", "run", migrationSpec, "-ndjson", "-parallel", "4", "-store", storeDir, "-resume"}

	// A cold run into a scratch store computes every cell; its results
	// become the legacy per-file corpus.
	scratch := t.TempDir()
	cold := runCLI(t, "sweep", "run", migrationSpec, "-ndjson", "-parallel", "4", "-store", scratch)
	for _, ln := range cold[:len(cold)-1] {
		if wl, _ := parseWireLine(t, ln); wl.Cached {
			t.Fatal("cold cell marked cached")
		}
	}
	if n := writeLegacyCorpus(t, scratch, storeDir); n != len(cold)-1 {
		t.Fatalf("legacy corpus holds %d entries, want one per cell (%d)", n, len(cold)-1)
	}
	if _, err := os.Stat(filepath.Join(storeDir, store.SegmentsDirName)); !os.IsNotExist(err) {
		t.Fatalf("legacy fixture already has segments (err=%v)", err)
	}

	// Migrate in place via the CLI, exactly as an operator would.
	out := runCLI(t, "store", "pack", storeDir)
	if len(out) == 0 || !bytes.Contains(out[len(out)-1], []byte("packed")) {
		t.Fatalf("store pack said: %s", bytes.Join(out, []byte("\n")))
	}
	if _, err := os.Stat(filepath.Join(storeDir, store.SegmentsDirName)); err != nil {
		t.Fatalf("store pack wrote no segments: %v", err)
	}
	// Nothing per-file survives except the segments directory.
	des, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != "segments" {
			t.Fatalf("per-file remnant %q after pack", de.Name())
		}
	}

	// The packed corpus still verifies through the same CLI surface.
	verify := runCLI(t, "store", "verify", storeDir)
	last := string(verify[len(verify)-1])
	if !strings.Contains(last, "0 corrupt") {
		t.Fatalf("store verify after pack: %s", last)
	}

	// A resumed run over the migrated corpus: byte-identical stream,
	// every cell served from the store.
	warm := runCLI(t, args...)
	if len(warm) != len(cold) {
		t.Fatalf("migrated run emitted %d lines, cold %d", len(warm), len(cold))
	}
	for i, ln := range warm[:len(warm)-1] {
		wl, res := parseWireLine(t, ln)
		if !wl.Cached {
			t.Errorf("migrated cell %d not served from the packed store", i)
		}
		_, coldRes := parseWireLine(t, cold[i])
		if !bytes.Equal(res, coldRes) {
			t.Errorf("migrated cell %d result differs from cold run:\n%s\nwant:\n%s", i, res, coldRes)
		}
	}
	if !bytes.Equal(warm[len(warm)-1], cold[len(cold)-1]) {
		t.Errorf("migrated aggregate differs from cold run:\n%s\nwant:\n%s",
			warm[len(warm)-1], cold[len(cold)-1])
	}

	// A fresh server over the packed corpus serves the sweep entirely
	// from segments, byte-identical again.
	data, err := os.ReadFile(migrationSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newStoreServer(t, storeDir))
	defer srv.Close()
	http := postNDJSON(t, srv, "/v1/sweeps", data)
	if len(http) != len(cold) {
		t.Fatalf("http emitted %d lines, cold %d", len(http), len(cold))
	}
	for i, ln := range http[:len(http)-1] {
		wl, res := parseWireLine(t, ln)
		if !wl.Cached {
			t.Errorf("http cell %d not served from the packed store", i)
		}
		_, coldRes := parseWireLine(t, cold[i])
		if !bytes.Equal(res, coldRes) {
			t.Errorf("http cell %d result differs from cold run", i)
		}
	}
	if !bytes.Equal(http[len(http)-1], cold[len(cold)-1]) {
		t.Error("http aggregate differs from cold run after migration")
	}

	// And gc over the packed layout stays a safe no-op on a live corpus.
	gc := runCLI(t, "store", "gc", storeDir)
	if !strings.Contains(string(gc[len(gc)-1]), "removed 0 corrupt") {
		t.Fatalf("store gc after pack: %s", gc[len(gc)-1])
	}
}

// writeLegacyCorpus copies every result in the store at from into dir
// in the per-file layout earlier versions wrote — one EncodeEnvelope
// payload per dir/<hash[:2]>/<hash>-<seed>.json — and returns how many
// it wrote.
func writeLegacyCorpus(t *testing.T, from, dir string) int {
	t.Helper()
	src, err := store.OpenPacked(from)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	entries, err := src.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		res, ok, err := src.Get(e.Key)
		if !ok || err != nil {
			t.Fatalf("source entry %s: ok=%v err=%v", e.Key, ok, err)
		}
		data, err := store.EncodeEnvelope(e.Key, res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, e.Key.Hash[:2], e.Key.String()+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(entries)
}
