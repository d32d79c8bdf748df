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
	// Entries is the synthetic corpus size to write.
	Entries int
	// Reads is how many warm reads to sample (0 = Entries, capped).
	Reads int
	// Dir is the scratch root; the corpus goes in a subdirectory of it
	// (a temp dir when empty).
	Dir string
}

// BenchReport is the full `store bench` result.
type BenchReport struct {
	Entries int `json:"entries"`
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

// benchKey derives the i-th synthetic key: distinct, uniformly spread
// hashes like real scenario hashes.
func benchKey(i int) Key {
	sum := sha256.Sum256([]byte(strconv.Itoa(i)))
	return Key{Hash: hex.EncodeToString(sum[:8]), Seed: 1}
}

// RunBench fills a synthetic corpus and measures write throughput,
// warm-read latency (after a reopen, so reads include the index load),
// and one gc pass. The scratch corpus is removed afterwards.
func RunBench(opts BenchOptions) (*BenchReport, error) {
	if opts.Entries <= 0 {
		return nil, fmt.Errorf("store: bench: need a positive entry count")
	}
	entries := opts.Entries
	reads := min(opts.Reads, entries)
	if reads <= 0 {
		reads = entries
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
	dir := filepath.Join(root, "packed")
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("store: bench: %w", err)
	}
	st, err := OpenPacked(dir)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{Entries: entries, Reads: reads}

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
	rep.WriteNSPerOp = float64(elapsed.Nanoseconds()) / float64(entries)
	rep.WriteEntriesPerSec = float64(entries) / elapsed.Seconds()

	// Phase 2: warm reads against a reopened corpus — the resume/serve
	// access pattern, including the open cost amortized to zero.
	st, err = OpenPacked(dir)
	if err != nil {
		return nil, err
	}
	ls, err := st.List()
	if err != nil {
		st.Close()
		return nil, err
	}
	for _, e := range ls {
		rep.Bytes += e.Size
	}
	lat := make([]float64, 0, reads)
	// Deterministic LCG sampling: the same key sequence every run.
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
	rep.ReadNSPerOp = sum.Mean
	rep.ReadP95NS = sum.P95

	// Phase 3: one zero-options gc pass (integrity sweep + compaction).
	t0 := time.Now()
	if _, err := st.GC(); err != nil {
		st.Close()
		return nil, err
	}
	rep.GCNS = float64(time.Since(t0).Nanoseconds())
	return rep, st.Close()
}
