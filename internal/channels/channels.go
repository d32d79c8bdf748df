// Package channels declares the covert channels beyond the paper's
// current-management family, each as a core.Protocol: its slot schedule,
// its sender's per-slot step, its receiver's per-slot reading and its
// decoder rule. Each is registered as a first-class scenario kind in
// internal/scenario, so it is reachable from every surface (CLI, HTTP,
// sweeps, refinement, store, distributed tier) without surface-specific
// code.
//
// Two families live here today:
//
//   - Retire: retirement-stage contention between SMT siblings
//     (arXiv 2307.12486). The sender modulates occupancy of the shared
//     retire/delivery bandwidth; the receiver decodes from its own
//     unhalted-cycle counter, not from wall-clock timing, so TSC jitter
//     does not touch the signal.
//
//   - ClockMod: duty-cycle throttling as the carrier
//     (arXiv 2404.05823). The sender programs the package T-states
//     (IA32_CLOCK_MODULATION); the receiver times a fixed scalar loop in
//     each bit window, the windowed decode shared with the TurboCC and
//     DFScovert frequency baselines.
package channels
