package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Segment file format (the "store v2" layout).
//
// A segment is an append-only file of checksummed result envelopes:
//
//	offset 0        8 bytes   magic "ICSEG001"
//	then, back to back, one record per stored result:
//	  4 bytes       big-endian uint32: payload length N
//	  N bytes       one EncodeEnvelope payload (versioned, checksummed)
//
// The envelope payload is byte-identical to what the distributed tier
// ships and the older per-file layout stored — the segment adds framing,
// never a second encoding. There is no per-record CRC: the envelope's
// own SHA-256 checksum covers the payload, and a damaged length prefix
// surfaces as an impossible frame (zero, oversized, or past the end of
// the file), which scanning treats as a torn tail.
//
// Each segment has an index sidecar (<segment>.idx) written atomically
// (temp file + rename) when the segment seals: a JSON document mapping
// (hash, seed) → (offset, framed length, append timestamp) and
// recording how many segment bytes it covers. A sidecar that is
// missing, unreadable, or covers a different byte count than the
// segment holds is ignored and the segment is rescanned — the index is
// always reconstructible from the data it indexes.

// segMagic identifies a segment file; the trailing digits version the
// framing (the envelope payloads carry their own EnvelopeVersion).
const segMagic = "ICSEG001"

// maxRecordBytes bounds one framed payload — far above any real result
// envelope, so a garbage length prefix is rejected instead of driving a
// giant allocation.
const maxRecordBytes = 64 << 20

// SegmentEntry locates one decodable record inside a segment.
type SegmentEntry struct {
	Key Key
	// Offset is the position of the record's 4-byte length prefix;
	// Length is the full framed length (prefix + payload).
	Offset int64
	Length int64
}

// SegmentScan is the result of scanning one segment's bytes — the
// crash-safe index rebuild primitive.
type SegmentScan struct {
	// Entries are the records whose envelopes decode and verify, in
	// file order.
	Entries []SegmentEntry
	// Corrupt counts records whose framing was intact but whose
	// envelope failed to decode or verify; their bytes are dead but
	// scanning resynchronizes on the next record.
	Corrupt      int
	CorruptBytes int64
	// ValidBytes is the prefix covered by the magic header and complete
	// records (corrupt ones included — their frames are whole). Bytes
	// past it are a torn tail a killed writer left; truncating the file
	// to ValidBytes removes them losslessly.
	ValidBytes int64
	// Torn reports that the segment ends in an incomplete or
	// unparseable frame.
	Torn bool
}

// ScanSegment parses a segment image and locates every decodable
// record. A damaged record with intact framing is skipped and counted;
// an unparseable frame ends the scan (Torn) — everything before it
// still serves. Only a missing or wrong magic header is an error.
func ScanSegment(data []byte) (*SegmentScan, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("store: not a segment file (bad magic)")
	}
	sc := &SegmentScan{ValidBytes: int64(len(segMagic))}
	off := int64(len(segMagic))
	size := int64(len(data))
	for off < size {
		rem := size - off
		if rem < 4 {
			sc.Torn = true
			break
		}
		n := int64(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecordBytes || n > rem-4 {
			sc.Torn = true
			break
		}
		payload := data[off+4 : off+4+n]
		if key, ok := envelopeKey(payload); ok {
			sc.Entries = append(sc.Entries, SegmentEntry{Key: key, Offset: off, Length: 4 + n})
		} else {
			sc.Corrupt++
			sc.CorruptBytes += 4 + n
		}
		off += 4 + n
		sc.ValidBytes = off
	}
	return sc, nil
}

// segIndexVersion is the sidecar format version; unknown versions are
// treated as stale (rescan), never guessed at.
const segIndexVersion = 1

// segmentIndex is the sidecar document.
type segmentIndex struct {
	Version int `json:"version"`
	// CoveredBytes is the segment file size the sidecar describes; a
	// mismatch with the file on disk marks the sidecar stale.
	CoveredBytes int64               `json:"covered_bytes"`
	Entries      []segmentIndexEntry `json:"entries"`
}

type segmentIndexEntry struct {
	Hash string `json:"hash"`
	Seed int64  `json:"seed"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	// TS is the unix-second append time, the retention clock MaxAge
	// evicts by (a rescan falls back to the segment's mtime).
	TS int64 `json:"ts"`
}

// writeSidecar atomically writes a segment's index sidecar — the
// "seal": temp file in the destination directory, then rename.
func writeSidecar(path string, idx *segmentIndex) error {
	data, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("store: seal %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: seal %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: seal %s: %w", path, err)
	}
	return nil
}

// readSidecar loads a sidecar; ok is false when it is missing, damaged,
// from an unknown version, or stale for a segment of segSize bytes —
// every one of those means "rescan the segment".
func readSidecar(path string, segSize int64) (*segmentIndex, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var idx segmentIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, false
	}
	if idx.Version != segIndexVersion || idx.CoveredBytes != segSize {
		return nil, false
	}
	for _, e := range idx.Entries {
		if e.Hash == "" || e.Off < int64(len(segMagic)) || e.Len <= 4 || e.Off+e.Len > segSize {
			return nil, false
		}
	}
	return &idx, true
}
