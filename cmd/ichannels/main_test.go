package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ichannels"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

func TestDecodeSpecs(t *testing.T) {
	if specs, err := decodeSpecs([]byte(`{"role":"channel","bits":8}`)); err != nil || len(specs) != 1 {
		t.Errorf("single object: specs=%d err=%v", len(specs), err)
	}
	if specs, err := decodeSpecs([]byte(`[{"role":"channel"},{"role":"spy"}]`)); err != nil || len(specs) != 2 {
		t.Errorf("array: specs=%d err=%v", len(specs), err)
	}
	for _, bad := range []string{
		``,
		`{"role":"channel","warp":1}`,      // unknown field
		`{"role":"channel"}{"role":"spy"}`, // trailing object silently dropped before the fix
		`[{"role":"channel"}] garbage`,     // trailing garbage after array
	} {
		if _, err := decodeSpecs([]byte(bad)); err == nil {
			t.Errorf("%q: decoded but should fail", bad)
		}
	}
	if _, err := decodeSpecs([]byte(`{"role":"a"}{"role":"b"}`)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("concatenated objects: %v", err)
	}
}

func TestLoadSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sw.json")
	if err := os.WriteFile(path, []byte(`{"base":{"role":"channel","kind":"cores"},"axes":{"bits":[4,8]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := loadSweep("sweep run", []string{path}, flag.NewFlagSet("t", flag.ContinueOnError))
	if err != nil {
		t.Fatalf("one file: %v", err)
	}
	if n, err := sw.CountCells(); err != nil || n != 2 {
		t.Errorf("loaded sweep expands to %d cells (%v), want 2", n, err)
	}
	// Exactly one spec file: the axes are the fan-out, not the arg list.
	if _, err := loadSweep("sweep run", []string{path, path}, flag.NewFlagSet("t", flag.ContinueOnError)); err == nil ||
		!strings.Contains(err.Error(), "exactly one") {
		t.Errorf("two files: %v", err)
	}
	if _, err := loadSweep("sweep run", nil, flag.NewFlagSet("t", flag.ContinueOnError)); err == nil {
		t.Error("no files accepted")
	}
	// Flags mix with the file path in any order.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	par := fs.Int("parallel", 1, "")
	if _, err := loadSweep("sweep run", []string{"-parallel", "4", path}, fs); err != nil || *par != 4 {
		t.Errorf("flag-first parse: err=%v parallel=%d", err, *par)
	}
}

// captureStdout runs fn with os.Stdout redirected to a temp file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// wantReports is what exp prints for ids at seed: each report followed
// by a blank line.
func wantReports(t *testing.T, seed int64, ids ...string) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ids {
		rep, err := ichannels.RunExperiment(id, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, rep)
	}
	return b.String()
}

// TestExpArgs: exp takes flags before or after any number of IDs (or
// all, for every experiment in registry order), and rejects unknown,
// repeated, or all-mixed selections before printing anything.
func TestExpArgs(t *testing.T) {
	var all []string
	for _, e := range ichannels.Experiments() {
		all = append(all, e.ID)
	}
	for _, tc := range []struct {
		args []string
		want []string // IDs printed at seed 3, in order
	}{
		{[]string{"fig13", "-seed", "3", "fig6a"}, []string{"fig13", "fig6a"}},
		{[]string{"-seed", "3", "fig13"}, []string{"fig13"}},
		{[]string{"fig6b", "fig13", "-seed", "3"}, []string{"fig6b", "fig13"}},
		{[]string{"all", "-seed", "3"}, all},
	} {
		out, err := captureStdout(t, func() error { return runExp(tc.args) })
		if err != nil {
			t.Errorf("exp %v: %v", tc.args, err)
			continue
		}
		if out != wantReports(t, 3, tc.want...) {
			t.Errorf("exp %v: printed something other than %v at seed 3", tc.args, tc.want)
		}
	}
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"fig13", "extra"}, `unknown experiment "extra"`},
		{[]string{"fig13", "-seed", "3", "nope"}, `unknown experiment "nope"`},
		{[]string{"fig13", "fig13"}, `"fig13" given more than once`},
		{[]string{"all", "fig13"}, "either all or experiment ids"},
		{[]string{"fig13", "all"}, "either all or experiment ids"},
		{[]string{"-seed", "3"}, "missing experiment id"},
		{nil, "missing experiment id"},
	} {
		out, err := captureStdout(t, func() error { return runExp(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("exp %v: error %v, want one containing %q", tc.args, err, tc.err)
		}
		if out != "" {
			t.Errorf("exp %v: printed %d bytes before rejecting the arguments", tc.args, len(out))
		}
	}
}

// snapshotTree maps every path under dir to its contents ("/" marks a
// directory), so a comparison catches created, removed and rewritten
// files alike.
func snapshotTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			tree[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestStoreReadVerbsWriteNothing: store ls and store verify only read.
// A corpus that is half duplicate records (two writers that stored the
// same cells) keeps its segments byte for byte, where an open used to
// start a compaction, and an empty foreign directory gains no segments
// directory.
func TestStoreReadVerbsWriteNothing(t *testing.T) {
	corpus := t.TempDir()
	var writers []*store.Packed
	for range 2 {
		st, err := store.OpenPacked(corpus)
		if err != nil {
			t.Fatal(err)
		}
		writers = append(writers, st)
	}
	for _, st := range writers {
		for seed := int64(1); seed <= 4; seed++ {
			res := &scenario.Result{Role: scenario.RoleChannel, Hash: "0123456789abcdef", Seed: seed, Bits: 4}
			if err := st.Put(store.Key{Hash: res.Hash, Seed: seed}, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range writers {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, dir := range []string{corpus, t.TempDir()} {
		before := snapshotTree(t, dir)
		for _, verb := range []string{"ls", "verify"} {
			if _, err := captureStdout(t, func() error { return storeCmd([]string{verb, dir}) }); err != nil {
				t.Fatalf("store %s %s: %v", verb, dir, err)
			}
			after := snapshotTree(t, dir)
			if !maps.Equal(before, after) {
				t.Errorf("store %s changed %s: %d paths before, %d after", verb, dir, len(before), len(after))
			}
		}
	}
}
