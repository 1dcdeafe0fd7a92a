// Package core is the characterization engine: it reproduces every
// experiment in the paper's evaluation (Figs 3-17, Tables 1-2) by driving
// simulated HBM2 chips through their command interface, exactly following
// the methodology of §3 (double-sided patterns, disabled refresh and ECC,
// per-row repetition policy, retention filtering, WCDP selection).
//
// Every experiment is the same shape - fan out over chip x channel x
// pseudo channel x bank x inner point, measure, collect deterministically -
// so all runners execute on one generic sweep engine (engine.go):
//
//   - A runner builds an explicit plan of Cells up front; the plan order is
//     the record order, so results are deterministic by construction (each
//     cell writes into its own preallocated slot - no result mutex, no
//     post-hoc sort).
//   - Cells are grouped by (chip, channel), the unit of device-lock
//     freedom: groups run concurrently on a bounded worker pool (WithJobs)
//     while cells within a group run serially in plan order.
//   - Each Run*Context entry point threads a context.Context through the
//     sweep; cancellation drops queued work promptly and returns ctx.Err().
//     The Run* forms are thin Background-context wrappers.
//   - A Sink (WithSink) observes the sweep live: progress per completed
//     cell and records streamed strictly in plan order, so partial output
//     (e.g. a JSON Lines file from a cancelled -full run) is a valid prefix
//     of the complete result set.
//   - Every sweep carries a fingerprint (fingerprint.go): a stable content
//     hash of (kind, canonical config, geometry, timing, chip set,
//     CodeGeneration), stamped as the header line of streamed files. Equal
//     fingerprints mean byte-identical record streams, which makes
//     truncated files resumable (ResumeFrom + WithResume warm-start the
//     identical sweep from its valid prefix, finishing byte-identically)
//     and finished files content-addressable (internal/store serves a
//     repeat sweep from disk instead of re-running it).
//   - Repeated measurements of one cell (the vrd sweep's per-trial HCfirst
//     bisections, the coldist sweep's per-distance probes) are
//     deterministic through the device's restore epochs: every restore of
//     a row advances its epoch, which reseeds the fault model's
//     TrialJitter deterministically, so trial K of a cell sees the same
//     jitter in every run. Because all of a cell's repeated measurements
//     execute inside that one plan cell, a sharded run replays the
//     identical epoch sequence a local run does (see vrd.go and
//     coldisturb.go for the two sides of this contract).
//
// Each kind is registered once, as a typed descriptor in kinds.go: its
// config type and defaults, plan axes, resume span rule, completeness
// rule and per-cell measurement, plus the record type whose fields, in
// order, are its columnar schema. Fingerprinting, plan sizing, decoding,
// the columnar codec, every Run*Context entry point and the hbmrdd
// service read the descriptor instead of switching on the kind, so a new
// sweep-shaped experiment costs a config struct, a record struct, a
// measurement method and one registry entry.
package core
