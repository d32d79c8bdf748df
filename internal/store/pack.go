package store

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// PackReport summarizes one per-file → packed migration.
type PackReport struct {
	// Packed counts entries appended to segments (and their per-file
	// originals removed); AlreadyPacked entries the segment corpus
	// already held (their per-file duplicates are removed too).
	Packed        int `json:"packed"`
	AlreadyPacked int `json:"already_packed,omitempty"`
	// Skipped counts per-file entries that failed envelope verification
	// and were left in place, each with its Problem.
	Skipped int `json:"skipped,omitempty"`
	// Bytes is the payload volume migrated; Segments the segment count
	// after the migration sealed.
	Bytes    int64     `json:"bytes"`
	Segments int       `json:"segments"`
	Problems []Problem `json:"problems,omitempty"`
}

// Pack migrates a per-file corpus — the layout earlier versions wrote,
// one envelope per dir/<hash[:2]>/<hash>-<seed>.json — into segments,
// in place: every verifying entry is appended under dir/segments
// (envelope bytes copied verbatim, so checksums and the byte-identity
// contract survive untouched) and its per-file original removed;
// entries that fail verification stay where they are and are reported.
// Nothing else reads or writes per-file entries. Pack is idempotent and
// crash-resumable — the per-file entry is removed only after its bytes
// are in a segment, Put deduplicates, and a re-run finishes whatever an
// interrupted one left. On a packed or empty directory it is a no-op.
func Pack(dir string) (*PackReport, error) {
	// With segments/ in place the open accepts the per-file corpus.
	if err := os.MkdirAll(filepath.Join(dir, SegmentsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("store: pack: %w", err)
	}
	packed, err := OpenPackedWith(dir, PackedOptions{DisableAutoCompact: true})
	if err != nil {
		return nil, err
	}
	defer packed.Close()

	rep := &PackReport{}
	entries, err := legacyEntries(dir)
	if err != nil {
		return nil, fmt.Errorf("store: pack: %w", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(e.path)
		if err == nil {
			_, err = decodeEnvelope(e.key, data)
		}
		if err != nil {
			rep.Skipped++
			rep.Problems = append(rep.Problems, Problem{Path: e.path, Err: err.Error()})
			continue
		}
		packed.mu.RLock()
		_, dup := packed.index[e.key]
		packed.mu.RUnlock()
		if dup {
			rep.AlreadyPacked++
		} else {
			if err := packed.PutObject(e.key, data); err != nil {
				return nil, err
			}
			rep.Packed++
			rep.Bytes += int64(len(data))
		}
		// The segment holds the bytes (or already did); the per-file
		// original is now a duplicate.
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: pack: %w", err)
		}
	}
	removeEmptyShards(dir)
	if err := packed.Close(); err != nil {
		return nil, err
	}
	packed.mu.RLock()
	rep.Segments = len(packed.segs)
	packed.mu.RUnlock()
	return rep, nil
}

// legacyEntry is one per-file entry awaiting migration.
type legacyEntry struct {
	key  Key
	path string
}

// legacyEntries lists the per-file entries under dir in lexical path
// order. The segments directory and files that are not entry files are
// skipped.
func legacyEntries(dir string) ([]legacyEntry, error) {
	segDir := filepath.Join(dir, SegmentsDirName)
	var out []legacyEntry
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == segDir:
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		if key, ok := parseEntryName(d.Name()); ok {
			out = append(out, legacyEntry{key: key, path: path})
		}
		return nil
	})
	return out, err
}

// parseEntryName recovers the key from a per-file entry name
// (<hash>-<seed>.json). ok is false for anything else (temporaries,
// foreign files).
func parseEntryName(name string) (Key, bool) {
	base, found := strings.CutSuffix(name, ".json")
	if !found || strings.HasPrefix(name, tmpPrefix) {
		return Key{}, false
	}
	return ParseKeyString(base)
}

// hasLegacyEntries reports whether dir holds per-file entries: a
// two-hex-digit shard directory with a <hash>-<seed>.json file in it.
func hasLegacyEntries(dir string) bool {
	des, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, de := range des {
		if !de.IsDir() || len(de.Name()) != 2 {
			continue
		}
		if _, err := hex.DecodeString(de.Name()); err != nil {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(dir, de.Name()))
		for _, f := range files {
			if _, ok := parseEntryName(f.Name()); ok {
				return true
			}
		}
	}
	return false
}

// removeEmptyShards clears out the two-hex-character shard directories
// a per-file corpus leaves behind once its entries migrate. Best
// effort: a non-empty directory (a skipped corrupt entry, a foreign
// file) simply stays.
func removeEmptyShards(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if de.IsDir() && de.Name() != SegmentsDirName {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}
