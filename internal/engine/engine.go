// Package engine orchestrates batch execution on a bounded worker pool,
// with per-item derived seeds, wall-clock timing capture, panic
// isolation, and context cancellation. It is the seam batch execution
// (cmd/ichannels scenario run / sweep run) and HTTP serving
// (internal/serve) build on.
//
// A batch is a list of scenarios: RunScenarios collects every outcome,
// StreamScenarios emits them in order as they complete. The registered
// figure experiments are experiment-role scenarios
// (scenario.FromExperiment), so a batch of paper figures runs through
// the same path as every other batch.
//
// Determinism contract: the result content of a batch is a pure
// function of (BaseSeed, scenarios). The degree of parallelism affects
// only wall-clock time — for a fixed base seed, a run with Parallel=N
// produces results byte-identical (text, JSON and NDJSON renderings) to
// a serial run, because every scenario receives the same seed (its
// pinned one, or DeriveScenarioSeed) and the simulator itself is
// deterministic for a fixed seed. Timing is captured outside the results
// so it never perturbs their bytes.
package engine

import (
	"hash/fnv"
	"io"
)

// DeriveSeed maps a batch base seed and a string identity to a seed.
// The derivation (FNV-1a over the identity, mixed with the base through
// a splitmix64 finalizer) is stable across runs, platforms, and worker
// counts — it is part of the determinism contract (DeriveScenarioSeed
// builds on it), so changing it moves every derived-seed result and
// invalidates recorded baselines.
func DeriveSeed(base int64, id string) int64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	x := h.Sum64() ^ uint64(base)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// poolSize clamps a requested parallelism to [1, n].
func poolSize(requested, n int) int {
	if requested < 1 {
		requested = 1
	}
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}
