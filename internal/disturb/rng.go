// Package disturb implements the calibrated read-disturbance fault model
// that stands in for the DRAM cell physics of the six HBM2 chips the paper
// characterizes.
//
// Every quantity in the model is a deterministic function of a chip seed and
// a cell/row coordinate, derived through splitmix64 hashing. This gives the
// simulated chips the two properties the methodology depends on: behaviour
// is stable across repeated experiments (like silicon), yet every chip,
// die, bank, row, and cell differs (like process variation).
//
// Two disturbance channels share that machinery. The wordline model
// (FlipMask, model.go) covers row hammer, RowPress, and retention as a
// function of activation count and aggressor-on time; the bitline model
// (ColFlipMask, coldisturb.go) covers column-read disturbance, where
// streaming reads through one open row stress cells sharing its bitlines
// many rows away. Both draw from the same per-cell hash stream,
// decorrelated through distinct salts.
//
// # Determinism contract
//
// The per-cell hash stream is the specification: cell idx of a row draws
// h(idx) = splitmix64(rowSeed + idx*cellStride), and every per-cell
// quantity (threshold uniform, orientation, retention uniform) is a fixed
// pure function of that draw and the documented salts. Evaluation order is
// NOT part of the contract — FlipMask may visit cells in any order, skip
// whole words it can prove flip-free, or consult cached intermediates, but
// the resulting mask must be byte-identical to a naive per-cell sweep.
// TestFlipMaskMatchesScalar and TestColFlipMaskMatchesScalar (against
// per-cell oracles in test code) and the repository-level golden-digest
// test enforce this.
//
// # Cell-state cache
//
// Model caches, per touched row and sharded by bank (so concurrent sweep
// workers on different channels never share a lock): the derived
// calibration curve, and a summary of the per-cell randomness that the
// word-at-a-time kernels read. No per-cell hash is stored. Per 64-bit
// word the cache holds the orientation bits, the word's cluster factor,
// and weak-cell band masks: each cell's threshold uniform falls in one of
// six bands bounded by the levels 2^-10, 2^-8, 2^-6, 2^-4 and 2^-2, and
// one mask per band marks the word's cells in it. That is 8 KiB per 1 KiB
// row. The retention and column-disturb uniforms get the same bands,
// 6 KiB each, built on the row's first retention-active FlipMask and
// first ColFlipMask. Calibrations are tiny and cached forever; the cell
// arrays are bounded by a per-model byte budget (default 64 MiB, see
// Model.SetCellCacheBytes) with LRU eviction. Eviction only costs a
// deterministic rebuild on next touch; it can never change results.
//
// A cell flips only if its uniform is below the call's effective flip
// probability, and 1-(1-p)^wf <= max(1, wf)*p. So FlipMask and
// ColFlipMask bound each word's probabilities by max(1, wf)*maxP plus a
// margin for math.Pow rounding, visit only the eligible cells in the bands
// under the smallest level above that bound, and recompute those cells'
// hashes. Every other cell's uniform is above the level, so it cannot
// flip. Near the HCfirst threshold almost every word has no cell under
// 2^-10 and is skipped after one mask load; ColFlipMask skips words the
// same way.
//
// The cell arrays are built, in one pass over the hash stream, only when
// an evaluation can flip a cell. A hammer-only FlipMask first checks a
// row-level bound on terms that need no cell state (the calibration terms
// that do not depend on the row's weakest cell, the pattern jitter and
// the largest word factor); a dose below it provably flips nothing
// whatever the weakest cell turns out to be, so the call returns without
// drawing a single cell. The proof is on belowFlipBound in cellstate.go.
package disturb

import (
	"math"

	"hbmrd/internal/stats"
)

// splitmix64 is the 64-bit finalizer from Vigna's splitmix64 generator. It
// is used as a hash: statistically strong, branch-free, and fast enough to
// run once per DRAM cell on every row read.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mix folds v into h, producing a new hash state.
func mix(h, v uint64) uint64 {
	return splitmix64(h ^ (v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)))
}

// hashN chains an arbitrary number of values into one hash.
func hashN(vs ...uint64) uint64 {
	h := uint64(0x8445D61A4E774912)
	for _, v := range vs {
		h = mix(h, v)
	}
	return h
}

// unit converts a hash to a uniform float64 in the half-open interval (0, 1).
// The lower bound is open so the value can safely feed Probit and Log.
func unit(h uint64) float64 {
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// normal returns a deterministic standard normal variate derived from h.
func normal(h uint64) float64 {
	return stats.Probit(unit(h))
}

// lognormal returns exp(sigma*N + mu) derived deterministically from h.
func lognormal(h uint64, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*normal(h))
}

// expvar returns a deterministic Exp(1) variate derived from h.
func expvar(h uint64) float64 {
	return -math.Log(unit(h))
}

// gamma2 returns a deterministic Gamma(shape=2, scale=theta) variate: the
// sum of two independent exponentials. It shapes the per-row HCfirst
// multiplier distribution (minimum pinned near 1, long right tail).
func gamma2(h uint64, theta float64) float64 {
	return theta * (expvar(mix(h, 1)) + expvar(mix(h, 2)))
}
