package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ichannels/internal/scenario"
	"ichannels/internal/stats"
)

// BenchOptions sizes a store benchmark run (`store bench`).
type BenchOptions struct {
	// Entries is the synthetic corpus size to write per layout.
	Entries int
	// Reads is how many warm reads to sample (0 = Entries, capped).
	Reads int
	// Dir is the scratch root; one subdirectory per layout is created
	// under it (a temp dir when empty).
	Dir string
	// Layouts selects which layouts to measure (nil = both).
	Layouts []Layout
}

// BenchLayoutReport is one layout's measurements.
type BenchLayoutReport struct {
	Layout  Layout `json:"layout"`
	Entries int    `json:"entries"`
	// Bytes is the corpus size on disk after the fill.
	Bytes int64 `json:"bytes"`
	// Write throughput over the fill.
	WriteNSPerOp       float64 `json:"write_ns_per_op"`
	WriteEntriesPerSec float64 `json:"write_entries_per_sec"`
	// Warm-read latency over Reads random (deterministically sampled)
	// gets against the filled, reopened corpus.
	Reads       int     `json:"reads"`
	ReadNSPerOp float64 `json:"read_ns_per_op"`
	ReadP95NS   float64 `json:"read_p95_ns"`
	// GCNS is one full zero-options gc pass over the corpus.
	GCNS float64 `json:"gc_ns"`
}

// BenchReport is the full `store bench` result.
type BenchReport struct {
	Entries int                 `json:"entries"`
	Layouts []BenchLayoutReport `json:"layouts"`
}

// benchBitLengths are the bit lengths of the benchmark grid's channel
// cells. A cell's result holds its sent and decoded streams, one int
// per bit, so the envelope grows from a few hundred bytes at 16 bits to
// about 4.5 KB at 1024, and read numbers include decoding the streams.
var benchBitLengths = [...]int{16, 32, 256, 1024}

// benchResult builds the i-th synthetic result, cycling through
// benchBitLengths.
func benchResult(hash string, i int) *scenario.Result {
	n := benchBitLengths[i%len(benchBitLengths)]
	sent, decoded := make([]int, n), make([]int, n)
	for b := range sent {
		sent[b] = (i + b*b) % 2
		decoded[b] = sent[b]
	}
	decoded[i%n] ^= 1
	return &scenario.Result{
		Role: scenario.RoleChannel, Processor: "Cannon Lake", Kind: scenario.KindCores,
		Hash: hash, Seed: 1,
		Bits: n, SentBits: sent, DecodedBits: decoded,
		ThroughputBPS: 3000.25 + float64(i%97), BER: 1 / float64(n), SymbolErrors: 1,
		ElapsedSimUS: 1234.5 + float64(i%13),
		Extra:        map[string]float64{"calibration_gap_cycles": float64(4200 + i%29)},
	}
}

// benchKey derives the i-th synthetic key: distinct hashes spread
// across shards the way real scenario hashes are.
func benchKey(i int) Key {
	sum := sha256.Sum256([]byte(strconv.Itoa(i)))
	return Key{Hash: hex.EncodeToString(sum[:8]), Seed: 1}
}

// openBenchStore opens a fresh store of the given layout at dir.
func openBenchStore(layout Layout, dir string) (DirStore, error) {
	if layout == LayoutPacked {
		return OpenPacked(dir)
	}
	return Open(dir)
}

// RunBench fills a synthetic corpus per layout and measures write
// throughput, warm-read latency (after a reopen, so the packed layout
// pays its index load), and one gc pass — the numbers behind the
// packed-vs-per-file crossover claim. The scratch corpora are removed
// afterwards.
func RunBench(opts BenchOptions) (*BenchReport, error) {
	if opts.Entries <= 0 {
		return nil, fmt.Errorf("store: bench: need a positive entry count")
	}
	layouts := opts.Layouts
	if len(layouts) == 0 {
		layouts = []Layout{LayoutPerFile, LayoutPacked}
	}
	reads := opts.Reads
	if reads <= 0 {
		reads = opts.Entries
	}
	if reads > opts.Entries {
		reads = opts.Entries
	}
	root := opts.Dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "ichannels-store-bench-")
		if err != nil {
			return nil, fmt.Errorf("store: bench: %w", err)
		}
		defer os.RemoveAll(root)
	}

	rep := &BenchReport{Entries: opts.Entries}
	for _, layout := range layouts {
		lr, err := benchLayout(layout, filepath.Join(root, string(layout)), opts.Entries, reads)
		if err != nil {
			return nil, err
		}
		rep.Layouts = append(rep.Layouts, *lr)
	}
	return rep, nil
}

func benchLayout(layout Layout, dir string, entries, reads int) (*BenchLayoutReport, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("store: bench: %w", err)
	}
	st, err := openBenchStore(layout, dir)
	if err != nil {
		return nil, err
	}
	lr := &BenchLayoutReport{Layout: layout, Entries: entries, Reads: reads}

	// Phase 1: fill.
	start := time.Now()
	for i := 0; i < entries; i++ {
		if err := st.Put(benchKey(i), benchResult(benchKey(i).Hash, i)); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	lr.WriteNSPerOp = float64(elapsed.Nanoseconds()) / float64(entries)
	lr.WriteEntriesPerSec = float64(entries) / elapsed.Seconds()

	// Phase 2: warm reads against a reopened corpus — the resume/serve
	// access pattern, including the open cost amortized to zero.
	st, err = openBenchStore(layout, dir)
	if err != nil {
		return nil, err
	}
	ls, err := st.List()
	if err != nil {
		st.Close()
		return nil, err
	}
	for _, e := range ls {
		lr.Bytes += e.Size
	}
	lat := make([]float64, 0, reads)
	// Deterministic LCG sampling: identical key sequence per layout.
	rng := uint64(1)
	for i := 0; i < reads; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := benchKey(int(rng % uint64(entries)))
		t0 := time.Now()
		_, ok, err := st.Get(key)
		if err != nil || !ok {
			st.Close()
			return nil, fmt.Errorf("store: bench: warm read %s: ok=%v err=%v", key, ok, err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
	}
	sum := stats.Summarize(lat)
	lr.ReadNSPerOp = sum.Mean
	lr.ReadP95NS = sum.P95

	// Phase 3: one zero-options gc pass (integrity sweep + compaction
	// on packed, integrity sweep on per-file).
	t0 := time.Now()
	if _, err := st.GC(); err != nil {
		st.Close()
		return nil, err
	}
	lr.GCNS = float64(time.Since(t0).Nanoseconds())
	return lr, st.Close()
}
