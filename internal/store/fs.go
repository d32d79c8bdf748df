package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ichannels/internal/scenario"
)

// tmpPrefix marks in-progress writes; GC removes leftovers from killed
// processes.
const tmpPrefix = ".tmp-"

// FS is the filesystem Store: one file per (hash, seed) under
// dir/<hash[:2]>/<hash>-<seed>.json, written atomically.
type FS struct {
	dir string
}

// Open creates (if needed) and opens a filesystem store rooted at dir.
func Open(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &FS{dir: dir}, nil
}

// Dir returns the store's root directory.
func (f *FS) Dir() string { return f.dir }

// path returns the entry file for key. The two-hex-character shard
// directory keeps any one directory small on big corpora.
func (f *FS) path(key Key) string {
	shard := "xx"
	if len(key.Hash) >= 2 {
		shard = key.Hash[:2]
	}
	return filepath.Join(f.dir, shard, key.String()+".json")
}

// Get implements Store.
func (f *FS) Get(key Key) (*scenario.Result, bool, error) {
	data, err := os.ReadFile(f.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	res, err := decodeEnvelope(key, data)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// Put implements Store: marshal the canonical envelope, write it to a
// temporary file in the destination directory, and rename it into
// place. Rename is atomic on POSIX, so readers only ever see absent or
// complete entries, and concurrent writers of one key (which, by
// determinism, write identical bytes) cannot interleave.
func (f *FS) Put(key Key, res *scenario.Result) error {
	data, err := EncodeEnvelope(key, res)
	if err != nil {
		return err
	}
	return f.PutObject(key, data)
}

// GetObject implements Backend: the entry's raw envelope bytes, no
// verification (BackendStore layers that).
func (f *FS) GetObject(key Key) ([]byte, bool, error) {
	data, err := os.ReadFile(f.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	return data, true, nil
}

// ListObjects implements Backend.
func (f *FS) ListObjects() ([]Entry, error) { return f.List() }

// Layout identifies the on-disk format for DirStore consumers.
func (f *FS) Layout() Layout { return LayoutPerFile }

// Close implements DirStore; the per-file layout holds no open state.
func (f *FS) Close() error { return nil }

// PutObject implements Backend: write pre-encoded envelope bytes
// atomically under key's entry path.
func (f *FS) PutObject(key Key, data []byte) error {
	dest := f.path(key)
	dir := filepath.Dir(dest)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err == nil {
		// CreateTemp made the file 0600; the corpus is explicitly
		// shared across processes and users (CLI writes, a server
		// running as someone else reads), so entries get normal
		// data-file permissions.
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), dest); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Entry describes one stored result for listings.
type Entry struct {
	Key  Key   `json:"key"`
	Size int64 `json:"size"`
}

// parseEntryName recovers the key from an entry file name
// (<hash>-<seed>.json). ok is false for anything else (tmp files,
// foreign files).
func parseEntryName(name string) (Key, bool) {
	base, found := strings.CutSuffix(name, ".json")
	if !found || strings.HasPrefix(name, tmpPrefix) {
		return Key{}, false
	}
	i := strings.LastIndexByte(base, '-')
	if i <= 0 || i == len(base)-1 {
		return Key{}, false
	}
	seed, err := strconv.ParseInt(base[i+1:], 10, 64)
	if err != nil {
		return Key{}, false
	}
	return Key{Hash: base[:i], Seed: seed}, true
}

// walk visits every regular file under the store root in deterministic
// (lexical) order.
func (f *FS) walk(fn func(path string, name string, size int64, mtime time.Time) error) error {
	return filepath.WalkDir(f.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return fn(path, d.Name(), info.Size(), info.ModTime())
	})
}

// List returns every entry in the store, sorted by key (hash, then
// seed). The slice is non-nil even when empty, so `store ls -json`
// emits [] rather than null.
func (f *FS) List() ([]Entry, error) {
	out := []Entry{}
	err := f.walk(func(path, name string, size int64, _ time.Time) error {
		if key, ok := parseEntryName(name); ok {
			out = append(out, Entry{Key: key, Size: size})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Hash != out[j].Key.Hash {
			return out[i].Key.Hash < out[j].Key.Hash
		}
		return out[i].Key.Seed < out[j].Key.Seed
	})
	return out, nil
}

// Problem is one entry (or stray file) Verify found unreadable.
type Problem struct {
	Path string `json:"path"`
	Err  string `json:"error"`
}

// VerifyReport summarizes an integrity pass over the whole store.
type VerifyReport struct {
	Entries  int       `json:"entries"`
	Bytes    int64     `json:"bytes"`
	Problems []Problem `json:"problems,omitempty"`
	// Stray counts files that are not entries (leftover temporaries,
	// foreign files); they are reported by GC, not treated as damage.
	Stray int `json:"stray"`
}

// Verify reads and checks every entry: envelope version, key match,
// checksum, and result decodability.
func (f *FS) Verify() (*VerifyReport, error) {
	rep := &VerifyReport{}
	err := f.walk(func(path, name string, size int64, _ time.Time) error {
		key, ok := parseEntryName(name)
		if !ok {
			rep.Stray++
			return nil
		}
		rep.Entries++
		rep.Bytes += size
		data, err := os.ReadFile(path)
		if err == nil {
			_, err = decodeEnvelope(key, data)
		}
		if err != nil {
			rep.Problems = append(rep.Problems, Problem{Path: path, Err: err.Error()})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: verify: %w", err)
	}
	return rep, nil
}

// GCOptions bounds what GCWith retains beyond the always-removed
// corruption and stray temporaries — the retention knobs CI scratch
// corpora need (results are deterministic, so an evicted entry costs a
// recompute, never data).
type GCOptions struct {
	// MaxAge, when positive, removes intact entries whose file
	// modification time is older than now − MaxAge.
	MaxAge time.Duration
	// MaxBytes, when positive, evicts intact entries oldest-first
	// until the surviving corpus is at most this many bytes.
	MaxBytes int64
}

// GCReport summarizes a garbage-collection pass.
type GCReport struct {
	// RemovedCorrupt counts entries deleted because they failed the
	// integrity check; RemovedStray counts leftover temporary files
	// from killed writers.
	RemovedCorrupt int   `json:"removed_corrupt"`
	RemovedStray   int   `json:"removed_stray"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// RemovedExpired counts intact entries past GCOptions.MaxAge;
	// RemovedOverBudget intact entries evicted oldest-first to fit
	// GCOptions.MaxBytes.
	RemovedExpired    int `json:"removed_expired,omitempty"`
	RemovedOverBudget int `json:"removed_over_budget,omitempty"`
	// Skipped counts files gc recognized as not belonging to the store
	// (neither entries nor temporaries) and deliberately left alone —
	// reported so an operator pointing gc at the wrong directory sees
	// the mismatch instead of silence.
	Skipped int `json:"skipped,omitempty"`
	// Kept counts the intact entries that survive.
	Kept int `json:"kept"`
}

// gcTmpAge is how old a temporary file must be before GC treats it as
// abandoned. A live writer holds its temp file for milliseconds; an
// hour-old one belongs to a killed process. The margin keeps
// `store gc` safe to run while sweeps write into the same directory.
const gcTmpAge = time.Hour

// gcCandidate is one entry the GC walk flagged as corrupt, re-checked
// before removal.
type gcCandidate struct {
	path string
	key  Key
	size int64
}

// gcIntact is one healthy entry, carried through the retention passes.
type gcIntact struct {
	path  string
	size  int64
	mtime time.Time
}

// GC removes what cannot ever be served: corrupt entries (their
// deterministic results are recomputable on demand) and abandoned
// temporary files (older than gcTmpAge — a younger one may belong to a
// live writer). Intact entries are never evicted — use GCWith for
// age/size-bounded retention.
func (f *FS) GC() (*GCReport, error) {
	return f.GCWith(GCOptions{})
}

// GCWith is GC plus retention: after the corruption and stray-file
// sweep, intact entries older than MaxAge are removed, then the
// oldest survivors are evicted until the corpus fits MaxBytes. Zero
// options make it plain GC. Eviction order is oldest modification
// time first (ties by path), so a CI scratch corpus keeps its most
// recently materialized results.
func (f *FS) GCWith(opts GCOptions) (*GCReport, error) {
	rep := &GCReport{}
	var removeTmp []string
	var corrupt []gcCandidate
	var intact []gcIntact
	var reclaim int64
	cutoff := time.Now().Add(-gcTmpAge)
	err := f.walk(func(path, name string, size int64, mtime time.Time) error {
		key, ok := parseEntryName(name)
		if !ok {
			if strings.HasPrefix(name, tmpPrefix) {
				if info, err := os.Stat(path); err != nil || info.ModTime().After(cutoff) {
					return nil // live (or already gone): leave it
				}
				removeTmp = append(removeTmp, path)
				reclaim += size
				rep.RemovedStray++
			} else {
				// Not an entry, not a temporary: a foreign file. Report
				// it, never touch it.
				rep.Skipped++
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil {
			_, err = decodeEnvelope(key, data)
		}
		if err != nil {
			corrupt = append(corrupt, gcCandidate{path: path, key: key, size: size})
			return nil
		}
		intact = append(intact, gcIntact{path: path, size: size, mtime: mtime})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	for _, path := range removeTmp {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: gc: %w", err)
		}
	}
	for _, c := range corrupt {
		// Re-validate immediately before removal: a concurrent writer
		// may have atomically replaced the corrupt entry with a fresh
		// valid one since the walk, and deleting that would discard
		// just-persisted work.
		data, err := os.ReadFile(c.path)
		if err == nil {
			if _, err := decodeEnvelope(c.key, data); err == nil {
				info, statErr := os.Stat(c.path)
				if statErr != nil {
					continue
				}
				intact = append(intact, gcIntact{path: c.path, size: info.Size(), mtime: info.ModTime()})
				continue
			}
		} else if os.IsNotExist(err) {
			continue
		}
		if err := os.Remove(c.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: gc: %w", err)
		}
		rep.RemovedCorrupt++
		reclaim += c.size
	}

	// Retention pass 1: age bound.
	if opts.MaxAge > 0 {
		ageCutoff := time.Now().Add(-opts.MaxAge)
		survivors := intact[:0]
		for _, e := range intact {
			if e.mtime.Before(ageCutoff) {
				if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
					return nil, fmt.Errorf("store: gc: %w", err)
				}
				rep.RemovedExpired++
				reclaim += e.size
				continue
			}
			survivors = append(survivors, e)
		}
		intact = survivors
	}

	// Retention pass 2: size budget, oldest out first.
	if opts.MaxBytes > 0 {
		var total int64
		for _, e := range intact {
			total += e.size
		}
		if total > opts.MaxBytes {
			sort.Slice(intact, func(i, j int) bool {
				if !intact[i].mtime.Equal(intact[j].mtime) {
					return intact[i].mtime.Before(intact[j].mtime)
				}
				return intact[i].path < intact[j].path
			})
			for len(intact) > 0 && total > opts.MaxBytes {
				e := intact[0]
				intact = intact[1:]
				if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
					return nil, fmt.Errorf("store: gc: %w", err)
				}
				rep.RemovedOverBudget++
				reclaim += e.size
				total -= e.size
			}
		}
	}

	rep.Kept = len(intact)
	rep.ReclaimedBytes = reclaim
	return rep, nil
}
