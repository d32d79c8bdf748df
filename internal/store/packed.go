package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ichannels/internal/scenario"
)

// SegmentsDirName is the subdirectory of a store directory that holds
// the segment files and their index sidecars.
const SegmentsDirName = "segments"

// tmpPrefix marks in-progress sidecar writes; gc removes leftovers from
// killed processes once they are older than gcTmpAge.
const tmpPrefix = ".tmp-"

// gcTmpAge is how old a temporary file must be before gc treats it as
// abandoned. A live writer holds its temp file for milliseconds; an
// hour-old one belongs to a killed process.
const gcTmpAge = time.Hour

// DefaultMaxSegmentBytes is the roll threshold: the active segment
// seals and a new one starts once it grows past this.
const DefaultMaxSegmentBytes int64 = 8 << 20

// refreshEvery rate-limits the directory rescans a Get miss triggers to
// pick up what other writers appended since this store looked.
const refreshEvery = time.Second

// autoCompactDenominator makes a store's first write schedule a
// background compaction when the dead fraction discovered at open
// reaches 1/autoCompactDenominator of the corpus bytes.
const autoCompactDenominator = 4

// segFileRE matches the two file kinds a segments directory owns.
var segFileRE = regexp.MustCompile(`^\d{8}\.(seg|idx)$`)

// PackedOptions tunes OpenPackedWith; the zero value is OpenPacked's
// default.
type PackedOptions struct {
	// MaxSegmentBytes overrides the segment roll threshold (0 =
	// DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
}

// packedRef locates one live entry in the in-memory index.
type packedRef struct {
	seg    int
	off    int64
	length int64 // framed (prefix + payload)
	ts     int64 // unix-second append time, the MaxAge retention clock
}

// segmentState is one on-disk segment the store has open. size is the
// byte count this store indexed, which for another writer's live
// segment may trail the file on disk.
type segmentState struct {
	id   int
	path string
	f    *os.File
	size int64
	// entries accumulates the sidecar rows for the active segment.
	entries []segmentIndexEntry
}

// Packed is the result store: results are appended as framed
// envelopes to an active segment under dir/segments, located through an
// in-memory index loaded from per-segment sidecars — or rebuilt by
// scanning any segment whose sidecar is missing or stale, the
// crash-safe path. Besides the Store contract it carries the
// maintenance surface (List, Verify, GC/GCWith) the `store` verbs and
// serve retention drive.
//
//   - Put of an existing key is a no-op: by determinism the bytes would
//     be identical, and the log should not accumulate duplicates.
//   - A Get that finds a damaged record drops it from the index
//     (self-healing): the caller sees the usual error-degrades-to-miss
//     contract, and the next Put of that key re-materializes it —
//     compaction reclaims the dead bytes later.
//   - GCWith compacts: segments that lost records are rewritten —
//     survivors copied verbatim into fresh segments, old files deleted
//     — so reclaimed bytes actually return to the filesystem.
//
// Many processes may write one directory at once. Each writer appends
// only to a segment it created (O_EXCL picks distinct ids) and holds an
// exclusive advisory lock on it from creation until it seals it. An
// opener that finds an unsealed segment it cannot lock indexes that
// live writer's complete records in memory and never truncates the
// file or writes its sidecar; gc rewrites or deletes only segments it
// holds the lock on and indexed in full. What other writers add after
// open is picked up by a rescan of the directory, which every gc and
// (at most once per refreshEvery) a Get miss runs. Where the platform
// has no lock (see lock_other.go) a directory takes one writer at a
// time.
type Packed struct {
	dir    string
	segDir string
	maxSeg int64
	// now is the retention clock, swappable by tests.
	now func() time.Time

	mu      sync.RWMutex
	index   map[Key]packedRef
	segs    map[int]*segmentState
	active  *segmentState
	nextSeg int
	// deadBytes tracks on-disk bytes no index entry covers (corrupt
	// records, superseded duplicates) — compaction's trigger.
	deadBytes int64
	// compactDue is set at open when enough of the loaded bytes are
	// dead; the first write schedules that compaction, so a store that
	// only reads never rewrites a segment.
	compactDue bool
	// lastRefresh is when the directory was last rescanned for other
	// writers' segments (unix nanoseconds).
	lastRefresh atomic.Int64

	bg sync.WaitGroup
}

// OpenPacked opens the store rooted at dir with default options. Every
// directory surface (-store, -cache, serve -store, the store verbs)
// opens through it. Opening writes nothing but the crash repair below:
// dir and its segments directory are created by the first write.
func OpenPacked(dir string) (*Packed, error) {
	return OpenPackedWith(dir, PackedOptions{})
}

// OpenPackedWith is OpenPacked with explicit options. Opening loads
// every segment's sidecar; a segment whose sidecar is missing or stale
// is rescanned, and resealed (truncating any torn tail) unless a live
// writer still holds it, so the full corpus serves after any crash. A
// directory holding per-file entries and no segments directory is a
// corpus `store pack` has not migrated yet; opening it is an error
// rather than a silently empty store.
func OpenPackedWith(dir string, opts PackedOptions) (*Packed, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	segDir := filepath.Join(dir, SegmentsDirName)
	if _, err := os.Stat(segDir); os.IsNotExist(err) && hasLegacyEntries(dir) {
		return nil, fmt.Errorf("store: %s is a per-file corpus; migrate it with `store pack %s` first", dir, dir)
	}
	maxSeg := opts.MaxSegmentBytes
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegmentBytes
	}
	p := &Packed{
		dir: dir, segDir: segDir, maxSeg: maxSeg,
		now:     time.Now,
		index:   map[Key]packedRef{},
		segs:    map[int]*segmentState{},
		nextSeg: 1,
	}
	p.mu.Lock()
	err := p.refreshLocked()
	p.mu.Unlock()
	if err != nil {
		p.Close()
		return nil, err
	}
	if p.deadBytes > 0 {
		var live int64
		for _, ref := range p.index {
			live += ref.length
		}
		p.compactDue = p.deadBytes*autoCompactDenominator >= live+p.deadBytes
	}
	return p, nil
}

// refreshLocked brings the in-memory index up to date with the
// segments directory: it loads every segment this store has not indexed
// (all of them at open; later, those other writers created) and the
// records appended to segments that were still live when it loaded
// them. A segment file that replaced one this store holds under the
// same id (compacted away by another store, its id reused) is loaded
// afresh. Open runs it once; gc and Get misses run it again.
func (p *Packed) refreshLocked() error {
	p.lastRefresh.Store(time.Now().UnixNano())
	des, err := p.readSegDir()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".seg") || !segFileRE.MatchString(de.Name()) {
			continue
		}
		var id int
		fmt.Sscanf(de.Name(), "%08d.seg", &id)
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id >= p.nextSeg {
			p.nextSeg = id + 1
		}
		if st := p.segs[id]; st != nil {
			if st == p.active {
				continue
			}
			onDisk, err1 := os.Stat(st.path)
			held, err2 := st.f.Stat()
			if err1 != nil || err2 != nil {
				continue // gone since ReadDir: nothing new to index
			}
			if os.SameFile(held, onDisk) {
				if onDisk.Size() > st.size {
					if err := p.growSegmentLocked(st); err != nil {
						return err
					}
				}
				continue
			}
			p.forgetSegmentLocked(st)
		}
		if err := p.loadSegment(id); err != nil {
			return err
		}
	}
	return nil
}

// readSegDir lists the segments directory; one no write has created
// yet lists empty.
func (p *Packed) readSegDir() ([]os.DirEntry, error) {
	des, err := os.ReadDir(p.segDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return des, err
}

// refreshIfDue runs refreshLocked unless one ran within refreshEvery,
// and reports whether it ran. A failed rescan is only a missed chance
// to find other writers' records; the next one retries.
func (p *Packed) refreshIfDue() bool {
	last := p.lastRefresh.Load()
	now := time.Now().UnixNano()
	if now-last < int64(refreshEvery) || !p.lastRefresh.CompareAndSwap(last, now) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshLocked() == nil
}

// growSegmentLocked indexes the records another writer appended to st
// since this store indexed it: its size on disk grew, through more
// appends or the writer's seal.
func (p *Packed) growSegmentLocked(st *segmentState) error {
	idx, size, err := p.indexSegment(st.id, st.f)
	if err != nil || idx == nil {
		return err
	}
	p.addEntriesLocked(st.id, idx.Entries, st.size)
	st.size = max(st.size, size)
	return nil
}

// forgetSegmentLocked drops a segment whose file was replaced on disk,
// with every index entry that points into it. The records it held were
// relocated by whoever removed it, and a rescan finds them there.
func (p *Packed) forgetSegmentLocked(st *segmentState) {
	for key, ref := range p.index {
		if ref.seg == st.id {
			delete(p.index, key)
		}
	}
	st.f.Close()
	delete(p.segs, st.id)
}

func (p *Packed) segPath(id int) string {
	return filepath.Join(p.segDir, fmt.Sprintf("%08d.seg", id))
}

func (p *Packed) idxPath(id int) string {
	return filepath.Join(p.segDir, fmt.Sprintf("%08d.idx", id))
}

// loadSegment opens one segment and indexes its records.
func (p *Packed) loadSegment(id int) error {
	path := p.segPath(id)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil // compacted away by another process since ReadDir
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	idx, size, err := p.indexSegment(id, f)
	if err != nil || idx == nil {
		// idx is nil for a file that is not a segment (a writer's fresh,
		// still empty file, or a foreign file for gc to report).
		f.Close()
		return err
	}
	p.segs[id] = &segmentState{id: id, path: path, f: f, size: size}
	p.addEntriesLocked(id, idx.Entries, 0)
	return nil
}

// addEntriesLocked indexes segment id's entries at offsets from on.
func (p *Packed) addEntriesLocked(id int, entries []segmentIndexEntry, from int64) {
	for _, e := range entries {
		if e.Off < from {
			continue
		}
		key := Key{Hash: e.Hash, Seed: e.Seed}
		if old, dup := p.index[key]; dup {
			// Later segments win (a re-put entry supersedes a dropped
			// one); the older record becomes dead bytes.
			p.deadBytes += old.length
		}
		p.index[key] = packedRef{seg: id, off: e.Off, length: e.Len, ts: e.TS}
	}
}

// indexSegment returns a segment's index and the bytes it covers:
// through the sidecar when valid, by rescanning otherwise. An unsealed
// segment whose lock is free was abandoned by a killed writer: its torn
// tail is truncated and it is resealed. One whose lock is held belongs
// to a live writer: its complete records are indexed in memory only,
// and the file is left exactly as it is.
func (p *Packed) indexSegment(id int, f *os.File) (*segmentIndex, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	if idx, ok := readSidecar(p.idxPath(id), info.Size()); ok {
		return idx, info.Size(), nil
	}
	abandoned, err := tryLockSegment(f)
	if err != nil {
		return nil, 0, fmt.Errorf("store: lock %s: %w", p.segPath(id), err)
	}
	if abandoned {
		defer unlockSegment(f)
		// Nobody appends to a segment whose lock is free, so its size is
		// final now — and its writer may have sealed it since the stat.
		if info, err = f.Stat(); err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
		if idx, ok := readSidecar(p.idxPath(id), info.Size()); ok {
			return idx, info.Size(), nil
		}
	}
	size := info.Size()
	// A short read is a file another opener truncated since the stat:
	// scan what is there.
	data := make([]byte, size)
	n, err := f.ReadAt(data, 0)
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	sc, err := ScanSegment(data[:n])
	if err != nil {
		return nil, 0, nil
	}
	p.deadBytes += sc.CorruptBytes
	idx := &segmentIndex{Version: segIndexVersion, CoveredBytes: sc.ValidBytes}
	for _, e := range sc.Entries {
		idx.Entries = append(idx.Entries, segmentIndexEntry{
			Hash: e.Key.Hash, Seed: e.Key.Seed, Off: e.Offset, Len: e.Length, TS: info.ModTime().Unix(),
		})
	}
	if !abandoned {
		// A live writer's segment: a short tail is its record in
		// flight, and the sidecar is its to write when it seals.
		return idx, sc.ValidBytes, nil
	}
	if sc.ValidBytes < size {
		// Torn tail from a killed writer: truncate it away so the
		// resealed sidecar covers exactly what is on disk.
		if err := os.Truncate(p.segPath(id), sc.ValidBytes); err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
	}
	if err := writeSidecar(p.idxPath(id), idx); err != nil {
		return nil, 0, err
	}
	return idx, sc.ValidBytes, nil
}

// Dir returns the store's root directory.
func (p *Packed) Dir() string { return p.dir }

// WaitMaintenance blocks until any background compaction a first write
// scheduled has finished — the deterministic hook tests and Close use.
func (p *Packed) WaitMaintenance() { p.bg.Wait() }

// Close seals the active segment (writing its sidecar atomically) and
// releases file handles. A store abandoned without Close loses nothing:
// the next open rescans the unsealed segment and reseals it.
func (p *Packed) Close() error {
	p.bg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	if p.active != nil {
		if err := p.sealLocked(p.active); err != nil {
			firstErr = err
		}
		p.active = nil
	}
	for _, st := range p.segs {
		if st.f != nil {
			if err := st.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			st.f = nil
		}
	}
	return firstErr
}

// sealLocked writes the active segment's sidecar and releases its lock:
// from here on the segment is immutable, and any opener or gc may take
// it.
func (p *Packed) sealLocked(st *segmentState) error {
	idx := &segmentIndex{Version: segIndexVersion, CoveredBytes: st.size, Entries: st.entries}
	if err := writeSidecar(p.idxPath(st.id), idx); err != nil {
		return err
	}
	return unlockSegment(st.f)
}

// newActiveLocked creates the next segment file for appends (and the
// segments directory, on a store's first write) and locks it before it
// holds a byte, so no opener mistakes it for abandoned. O_EXCL detects
// another writer racing on the same id; the loser moves on to the next.
func (p *Packed) newActiveLocked() error {
	if err := os.MkdirAll(p.segDir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for {
		id := p.nextSeg
		p.nextSeg++
		f, err := os.OpenFile(p.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: new segment: %w", err)
		}
		err = lockSegment(f)
		if err == nil {
			_, err = f.WriteString(segMagic)
		}
		if err != nil {
			f.Close()
			os.Remove(p.segPath(id))
			return fmt.Errorf("store: new segment: %w", err)
		}
		st := &segmentState{id: id, path: p.segPath(id), f: f, size: int64(len(segMagic))}
		p.segs[id] = st
		p.active = st
		return nil
	}
}

// getPayload reads one entry's raw envelope bytes with its index ref.
// A read that fails is retried once against a fresh ref — a concurrent
// compaction may have relocated the record (and closed its old segment)
// between the index lookup and the file read.
func (p *Packed) getPayload(key Key) ([]byte, packedRef, bool, error) {
	var lastErr error
	var lastRef packedRef
	for attempt := 0; attempt < 2; attempt++ {
		p.mu.RLock()
		ref, ok := p.index[key]
		var f *os.File
		if ok {
			if st := p.segs[ref.seg]; st != nil {
				f = st.f
			}
		}
		p.mu.RUnlock()
		if !ok {
			// Another writer may have stored the key since this store
			// last looked.
			if attempt == 0 && p.refreshIfDue() {
				continue
			}
			return nil, packedRef{}, false, nil
		}
		if attempt > 0 && ref == lastRef {
			break // nothing moved; the record really is damaged
		}
		payload, err := p.readRecord(f, key, ref)
		if err == nil {
			return payload, ref, true, nil
		}
		lastErr, lastRef = err, ref
	}
	return nil, lastRef, true, lastErr
}

// Get implements Store. A record that fails verification is dropped
// from the index (its bytes stay dead until compaction) so a later Put
// can heal the key; the caller sees the standard error-degrades-to-miss
// contract either way.
func (p *Packed) Get(key Key) (*scenario.Result, bool, error) {
	payload, ref, ok, err := p.getPayload(key)
	if !ok {
		return nil, false, nil
	}
	if err != nil {
		p.dropRef(key, ref)
		return nil, false, err
	}
	res, err := decodeEnvelope(key, payload)
	if err != nil {
		p.dropRef(key, ref)
		return nil, false, err
	}
	return res, true, nil
}

// GetObject returns one entry's raw envelope bytes (the Backend seam).
// Framing damage drops the entry like Get does; payload verification is
// the consumer's job (BackendStore decodes).
func (p *Packed) GetObject(key Key) ([]byte, bool, error) {
	payload, ref, ok, err := p.getPayload(key)
	if !ok {
		return nil, false, nil
	}
	if err != nil {
		p.dropRef(key, ref)
		return nil, false, err
	}
	return payload, true, nil
}

// readRecord fetches and frame-checks one record's payload bytes.
func (p *Packed) readRecord(f *os.File, key Key, ref packedRef) ([]byte, error) {
	if f == nil {
		return nil, fmt.Errorf("store: entry %s: segment %d not open", key, ref.seg)
	}
	buf := make([]byte, ref.length)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("store: entry %s: segment read: %w", key, err)
	}
	if int64(binary.BigEndian.Uint32(buf))+4 != ref.length {
		return nil, fmt.Errorf("store: entry %s: malformed envelope frame", key)
	}
	return buf[4:], nil
}

// dropRef removes a damaged entry from the index — only if it still
// points at the same record, since a concurrent compaction may have
// already relocated the key to fresh, valid bytes.
func (p *Packed) dropRef(key Key, ref packedRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.index[key]; ok && cur == ref {
		delete(p.index, key)
		p.deadBytes += ref.length
	}
}

// Put implements Store: frame the canonical envelope and append it to
// the active segment, rolling (and sealing) at the size threshold. An
// already-present key is a no-op — by determinism the bytes would be
// identical, and the log should not accumulate duplicates.
func (p *Packed) Put(key Key, res *scenario.Result) error {
	env, err := EncodeEnvelope(key, res)
	if err != nil {
		return err
	}
	return p.PutObject(key, env)
}

// PutObject appends pre-encoded envelope bytes (the Backend seam; Put
// and pack migration share it). The caller vouches that data is a valid
// envelope for key — BackendStore and Pack decode before calling.
func (p *Packed) PutObject(key Key, data []byte) error {
	if len(data) == 0 || int64(len(data)) > maxRecordBytes {
		return fmt.Errorf("store: put %s: envelope of %d bytes outside record bounds", key, len(data))
	}
	frame := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(frame, uint32(len(data)))
	copy(frame[4:], data)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.index[key]; ok {
		return nil
	}
	if p.compactDue {
		p.compactDue = false
		p.bg.Add(1)
		go func() {
			defer p.bg.Done()
			p.GC() // compaction is the zero-options pass
		}()
	}
	return p.appendLocked(key, frame, p.now().Unix())
}

// appendLocked writes one framed record to the active segment and
// indexes it. ts is preserved as given — compaction re-appends with the
// original timestamp so retention clocks never reset.
func (p *Packed) appendLocked(key Key, frame []byte, ts int64) error {
	if p.active == nil {
		if err := p.newActiveLocked(); err != nil {
			return err
		}
	}
	st := p.active
	if _, err := st.f.Write(frame); err != nil {
		// Roll the partial write back so the in-memory size stays the
		// truth; a crash here instead leaves a torn tail the next open
		// truncates away.
		st.f.Truncate(st.size)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	off := st.size
	st.size += int64(len(frame))
	st.entries = append(st.entries, segmentIndexEntry{
		Hash: key.Hash, Seed: key.Seed, Off: off, Len: int64(len(frame)), TS: ts,
	})
	p.index[key] = packedRef{seg: st.id, off: off, length: int64(len(frame)), ts: ts}
	if st.size >= p.maxSeg {
		if err := p.sealLocked(st); err != nil {
			return err
		}
		p.active = nil
	}
	return nil
}

// Entry describes one stored result for listings.
type Entry struct {
	Key  Key   `json:"key"`
	Size int64 `json:"size"`
}

// ListObjects implements Backend.
func (p *Packed) ListObjects() ([]Entry, error) { return p.List() }

// List returns every indexed entry sorted by key, sizes in envelope
// bytes. The slice is non-nil even when empty, so `store ls -json`
// emits [] rather than null.
func (p *Packed) List() ([]Entry, error) {
	p.mu.RLock()
	out := make([]Entry, 0, len(p.index))
	for key, ref := range p.index {
		out = append(out, Entry{Key: key, Size: ref.length - 4})
	}
	p.mu.RUnlock()
	sortEntries(out)
	return out, nil
}

// sortedKeysLocked returns the index keys in deterministic order.
func (p *Packed) sortedKeysLocked() []Key {
	keys := make([]Key, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Hash != keys[j].Hash {
			return keys[i].Hash < keys[j].Hash
		}
		return keys[i].Seed < keys[j].Seed
	})
	return keys
}

// Problem is one entry (or stray file) Verify or Pack found unreadable.
type Problem struct {
	Path string `json:"path"`
	Err  string `json:"error"`
}

// VerifyReport summarizes an integrity pass over the whole store.
type VerifyReport struct {
	Entries  int       `json:"entries"`
	Bytes    int64     `json:"bytes"`
	Problems []Problem `json:"problems,omitempty"`
	// Stray counts files that are not the store's (temporaries,
	// foreign files, per-file entries `store pack` has not migrated);
	// they are reported, not treated as damage.
	Stray int `json:"stray"`
}

// Verify reads and checks every indexed entry — envelope version, key
// match, checksum, decodability — and counts the files the store does
// not own as stray. Report-only: unlike Get it never drops damaged
// entries.
func (p *Packed) Verify() (*VerifyReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &VerifyReport{}
	for _, key := range p.sortedKeysLocked() {
		ref := p.index[key]
		rep.Entries++
		rep.Bytes += ref.length - 4
		var f *os.File
		if st := p.segs[ref.seg]; st != nil {
			f = st.f
		}
		payload, err := p.readRecord(f, key, ref)
		if err == nil {
			_, err = decodeEnvelope(key, payload)
		}
		if err != nil {
			rep.Problems = append(rep.Problems, Problem{
				Path: fmt.Sprintf("%s@%d", p.segPath(ref.seg), ref.off), Err: err.Error(),
			})
		}
	}
	foreign, _, err := p.foreignFilesLocked()
	if err != nil {
		return nil, fmt.Errorf("store: verify: %w", err)
	}
	tmps, err := p.tmpFilesLocked(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("store: verify: %w", err)
	}
	rep.Stray = len(foreign) + len(tmps)
	return rep, nil
}

// foreignFilesLocked lists files the store does not own — anything
// under the root outside segments/, and anything inside segments/ that
// is not a segment, sidecar, or temporary — plus orphan sidecars (an
// .idx whose .seg is gone), which gc removes as stray.
func (p *Packed) foreignFilesLocked() (foreign, orphanIdx []string, err error) {
	err = filepath.WalkDir(p.dir, func(path string, d os.DirEntry, err error) error {
		if path == p.dir && os.IsNotExist(err) {
			return nil // nothing written yet
		}
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if filepath.Dir(path) != p.segDir {
			foreign = append(foreign, path)
			return nil
		}
		if strings.HasPrefix(name, tmpPrefix) {
			return nil // temporaries have their own pass
		}
		if !segFileRE.MatchString(name) {
			foreign = append(foreign, path)
			return nil
		}
		if strings.HasSuffix(name, ".idx") {
			var id int
			fmt.Sscanf(name, "%08d.idx", &id)
			// Judge by the disk, not this store's index: another writer
			// may have sealed a segment this store never loaded.
			if _, err := os.Stat(p.segPath(id)); os.IsNotExist(err) {
				orphanIdx = append(orphanIdx, path)
			}
		}
		return nil
	})
	return foreign, orphanIdx, err
}

// tmpFilesLocked lists temporaries in the segments directory older than
// cutoff (zero cutoff = all of them).
func (p *Packed) tmpFilesLocked(cutoff time.Time) ([]string, error) {
	des, err := p.readSegDir()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		if de.IsDir() || !strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		if !cutoff.IsZero() {
			info, err := de.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
		}
		out = append(out, filepath.Join(p.segDir, de.Name()))
	}
	return out, nil
}

// GCOptions bounds what GCWith retains beyond the always-removed
// corruption and stray temporaries — the retention knobs CI scratch
// corpora need (results are deterministic, so an evicted entry costs a
// recompute, never data).
type GCOptions struct {
	// MaxAge, when positive, removes intact entries appended longer
	// than MaxAge ago.
	MaxAge time.Duration
	// MaxBytes, when positive, evicts intact entries oldest-first
	// until the surviving corpus is at most this many bytes.
	MaxBytes int64
}

// GCReport summarizes a garbage-collection pass.
type GCReport struct {
	// RemovedCorrupt counts entries dropped because they failed the
	// integrity check; RemovedStray abandoned temporaries and orphan
	// sidecars.
	RemovedCorrupt int   `json:"removed_corrupt"`
	RemovedStray   int   `json:"removed_stray"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// RemovedExpired counts intact entries past GCOptions.MaxAge;
	// RemovedOverBudget intact entries evicted oldest-first to fit
	// GCOptions.MaxBytes.
	RemovedExpired    int `json:"removed_expired,omitempty"`
	RemovedOverBudget int `json:"removed_over_budget,omitempty"`
	// Skipped counts files gc recognized as not belonging to the store
	// and deliberately left alone — reported so an operator pointing gc
	// at the wrong directory sees the mismatch instead of silence.
	Skipped int `json:"skipped,omitempty"`
	// Kept counts the intact entries that survive.
	Kept int `json:"kept"`
}

// GC is GCWith with zero options: drop damaged records and abandoned
// temporaries, then compact — rewrite segments that lost records so the
// reclaimed bytes return to the filesystem.
func (p *Packed) GC() (*GCReport, error) { return p.GCWith(GCOptions{}) }

// GCWith is the retention + compaction pass: corrupt entries always go,
// then MaxAge and MaxBytes evict intact entries oldest-first by append
// time, and compaction rewrites every segment holding dead bytes:
// survivors are copied verbatim (frames and timestamps preserved) into
// fresh segments and the old files deleted. Only segments gc holds the
// lock on are touched (see lockSegmentsLocked); records in any other
// segment still count toward MaxBytes but are never evicted. Files the
// store does not own are counted in Skipped and never touched.
func (p *Packed) GCWith(opts GCOptions) (*GCReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &GCReport{}

	// Budgets count what every writer has stored so far.
	if err := p.refreshLocked(); err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	// Compaction wants every segment sealed; the active one reopens on
	// the next Put.
	if p.active != nil {
		if err := p.sealLocked(p.active); err != nil {
			return nil, err
		}
		p.active = nil
	}
	owned, err := p.lockSegmentsLocked()
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	defer func() {
		for id := range owned {
			unlockSegment(p.segs[id].f)
		}
	}()
	diskBefore := p.segBytesLocked()
	// evict drops key from the index when its record sits in a segment
	// this pass may rewrite.
	evict := func(key Key, counter *int) bool {
		ref := p.index[key]
		if !owned[ref.seg] {
			return false
		}
		delete(p.index, key)
		p.deadBytes += ref.length
		*counter++
		return true
	}

	// Pass 1: damaged records (framing or envelope) always go.
	for _, key := range p.sortedKeysLocked() {
		ref := p.index[key]
		payload, err := p.readRecord(p.segs[ref.seg].f, key, ref)
		if err == nil {
			_, err = decodeEnvelope(key, payload)
		}
		if err != nil {
			evict(key, &rep.RemovedCorrupt)
		}
	}

	// Pass 2: age bound, on the append timestamps the sidecars persist.
	if opts.MaxAge > 0 {
		cutoff := p.now().Add(-opts.MaxAge).Unix()
		for _, key := range p.sortedKeysLocked() {
			if p.index[key].ts < cutoff {
				evict(key, &rep.RemovedExpired)
			}
		}
	}

	// Pass 3: size budget over live record bytes, oldest out first
	// (ties broken by key order, so eviction is deterministic).
	if opts.MaxBytes > 0 {
		keys := p.sortedKeysLocked()
		sort.SliceStable(keys, func(i, j int) bool {
			return p.index[keys[i]].ts < p.index[keys[j]].ts
		})
		var total int64
		for _, k := range keys {
			total += p.index[k].length
		}
		for _, k := range keys {
			if total <= opts.MaxBytes {
				break
			}
			length := p.index[k].length
			if evict(k, &rep.RemovedOverBudget) {
				total -= length
			}
		}
	}

	// Abandoned temporaries (a live writer holds its temp file for
	// milliseconds; see gcTmpAge) and orphan sidecars.
	tmps, err := p.tmpFilesLocked(time.Now().Add(-gcTmpAge))
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	foreign, orphans, err := p.foreignFilesLocked()
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	for _, path := range append(tmps, orphans...) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: gc: %w", err)
		}
		rep.RemovedStray++
	}
	rep.Skipped = len(foreign)

	if err := p.compactLocked(owned); err != nil {
		return nil, err
	}

	if reclaimed := diskBefore - p.segBytesLocked(); reclaimed > 0 {
		rep.ReclaimedBytes = reclaimed
	}
	rep.Kept = len(p.index)
	return rep, nil
}

// lockSegmentsLocked takes the lock on every segment gc may rewrite and
// returns their ids. A segment is left out when another store holds its
// lock (a live writer's active segment, or one a concurrent gc is
// rewriting), or when the file at its path is not the one this store
// indexed in full — grown by a writer that was live at open, or
// compacted away and its id reused. Rewriting such a segment from this
// store's partial view would delete records it never saw.
func (p *Packed) lockSegmentsLocked() (map[int]bool, error) {
	owned := map[int]bool{}
	for id, st := range p.segs {
		ok, err := tryLockSegment(st.f)
		if err != nil {
			for id := range owned {
				unlockSegment(p.segs[id].f)
			}
			return nil, err
		}
		if !ok {
			continue
		}
		held, err1 := st.f.Stat()
		onDisk, err2 := os.Stat(st.path)
		if err1 != nil || err2 != nil || !os.SameFile(held, onDisk) || onDisk.Size() != st.size {
			unlockSegment(st.f)
			continue
		}
		owned[id] = true
	}
	return owned, nil
}

// segBytesLocked sums the segment bytes this store has indexed.
func (p *Packed) segBytesLocked() int64 {
	var total int64
	for _, st := range p.segs {
		total += st.size
	}
	return total
}

// compactLocked rewrites every owned segment whose bytes exceed its
// live records: survivors are copied (frame bytes and timestamps
// verbatim, offset order for sequential reads) into a fresh active
// segment, then the old segment and its sidecar are deleted and it
// leaves owned. Relocation targets get ids above every pre-existing
// segment, so the snapshot iteration never revisits them. Callers must
// have sealed the active segment first.
func (p *Packed) compactLocked(owned map[int]bool) error {
	bySeg := map[int][]Key{}
	for _, key := range p.sortedKeysLocked() {
		ref := p.index[key]
		bySeg[ref.seg] = append(bySeg[ref.seg], key)
	}
	for _, keys := range bySeg {
		sort.Slice(keys, func(i, j int) bool {
			return p.index[keys[i]].off < p.index[keys[j]].off
		})
	}
	var ids []int
	for id := range owned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := p.segs[id]
		var live int64
		for _, k := range bySeg[id] {
			live += p.index[k].length
		}
		if st.size == int64(len(segMagic))+live {
			continue // fully live: keep as-is
		}
		for _, key := range bySeg[id] {
			ref := p.index[key]
			frame := make([]byte, ref.length)
			if _, err := st.f.ReadAt(frame, ref.off); err != nil {
				return fmt.Errorf("store: gc: rewrite %s: %w", key, err)
			}
			if err := p.appendLocked(key, frame, ref.ts); err != nil {
				return err
			}
		}
		// Every survivor now lives in the new segment, so the old one
		// leaves this store whether or not its file goes away.
		err := retireSegment(st)
		delete(p.segs, id)
		delete(owned, id)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: gc: %w", err)
		}
		if err := os.Remove(p.idxPath(id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: gc: %w", err)
		}
	}
	if p.active != nil {
		if err := p.sealLocked(p.active); err != nil {
			return err
		}
		p.active = nil
	}
	p.deadBytes = 0
	p.compactDue = false
	return nil
}
