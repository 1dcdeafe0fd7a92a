package disturb

import (
	"math"
	"sync"

	"hbmrd/internal/stats"
)

// This file implements the model's per-row state cache: the derived
// calibration parameters plus the materialized per-cell randomness
// (per-cell hash draws, orientation bitmask, word-cluster factors) that
// FlipMask and calibration previously both recomputed from scratch on
// every call. The cache is sharded by bank so concurrent sweep workers on
// different channels never contend on one lock, and the bulky per-cell
// arrays sit behind a per-model byte budget with LRU eviction (the tiny
// per-row calibration stays cached forever, exactly like the old
// map[RowLoc]rowCalib).
//
// A row's state is built in stages, each only when a call needs it. The
// entry (seed, trial-jitter spread) exists from the first touch. The
// calibration terms that do not depend on the row's weakest cell
// (computeBase), the pattern jitter and the largest word factor are all a
// hammer-only FlipMask needs to apply the row-level skip bound
// (belowFlipBound); most calls on aggressor rows stop there. The cell
// arrays, and with them the minU anchor that completes the calibration
// (anchor), are built in one pass when a call can flip a cell, or when a
// caller needs the full calibration (the scalar path, ColFlipMask).
//
// Determinism contract: the per-cell hash stream (splitmix64 of
// rowSeed + cellIndex*cellStride, plus the documented salts) is the spec.
// Cached values are pure functions of that stream, so materializing them
// once — or evicting and rebuilding them — can never change a flip mask.

const (
	// cacheShards is the number of independent lock domains. Shards are
	// selected by (channel, pseudo, bank), so all rows of one bank share a
	// shard while different banks — and in particular different channels,
	// the sweep engine's unit of parallelism — almost always use different
	// locks.
	cacheShards = 64

	// defaultCellCacheBytes bounds the materialized per-cell arrays per
	// model. At the paper's 1 KiB rows one row costs ~68 KiB (8 B/cell of
	// hash draws plus four per-word arrays), so the default keeps ~960
	// rows' cell state live; evicted rows rebuild deterministically on
	// next touch.
	defaultCellCacheBytes = 64 << 20

	// cacheMinRowsPerShard keeps eviction from thrashing the active
	// working set (a double-sided hammer touches a victim and four
	// neighbours) even under an adversarially small budget.
	cacheMinRowsPerShard = 8
)

// cellArrays is the materialized per-cell randomness of one row. All
// fields are immutable once built (builds happen under the shard lock;
// readers that observed the build under the same lock may use the arrays
// lock-free afterwards).
type cellArrays struct {
	// h holds the per-cell splitmix64 draw h(idx) the model derives every
	// per-cell quantity from: the threshold uniform u = (h>>11 + 0.5)/2^53,
	// the orientation bit h&0x7FF, and the retention uniform
	// unit(splitmix64(h ^ saltRetention)).
	h []uint64
	// wf is the per-64-bit-word cluster factor (mean-one log-normal).
	wf []float64
	// maxWF is max(wf), used for the conservative word-skip ceiling.
	maxWF float64
	// wordMinU is the minimum threshold uniform of each word: a whole word
	// provably produces no hammer flips when its minimum u is at or above
	// the call's effective-probability ceiling.
	wordMinU []float64
	// orient is the orientation bitmask (bit set = true cell, stores
	// charge for logical 1). The true-cell fraction depends only on the
	// chip seed and the row's die, so the mask is cut in the same pass
	// that draws h.
	orient []uint64
	// retMinU is the per-word minimum retention uniform, built lazily on
	// the first retention-active evaluation of the row.
	retMinU []float64
	retOK   bool
	// bytes is the cache charge for this row (all arrays, including the
	// lazily built ones, so eviction accounting never moves).
	bytes int64
}

// rowEntry is the cached state of one row. The entry itself (seed, trial
// sigma, weakest-cell quantile, calibration) is small and lives forever;
// only the cellArrays behind it are subject to the LRU byte budget.
type rowEntry struct {
	loc        RowLoc
	rowSeed    uint64
	trialSigma float64

	// minU is the row's realized minimum threshold uniform, the anchor of
	// the calibration curve. It is derived during the first cell build and
	// kept after eviction so re-calibration (e.g. a temperature sweep)
	// never pays the full-row scan again.
	minU     float64
	haveMinU bool

	calib rowCalib
	// baseGen is model.gen+1 when calib's minU-free terms (computeBase)
	// are valid for the model's current temperature/age generation, and
	// calibGen when the anchored curve is too; 0 means never computed.
	baseGen, calibGen uint64

	// Terms of the row-level skip bound that no generation changes: the
	// bound's word factor max(1, max wf), and the pattern jitter of the
	// last victim fill byte seen (both positive once computed, 0 before).
	boundWF float64
	patJit  float64
	patByte byte

	cells      *cellArrays
	prev, next *rowEntry // LRU links, meaningful only while cells != nil
}

// calibShard is one lock domain of the row cache.
type calibShard struct {
	mu   sync.Mutex
	rows map[RowLoc]*rowEntry

	// Intrusive LRU over entries with live cell arrays, most recent first.
	lruHead, lruTail *rowEntry
	liveBytes        int64
	liveCount        int
}

func (s *calibShard) lruUnlink(e *rowEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *calibShard) lruPushFront(e *rowEntry) {
	e.prev, e.next = nil, s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

func (s *calibShard) lruTouch(e *rowEntry) {
	if s.lruHead == e {
		return
	}
	s.lruUnlink(e)
	s.lruPushFront(e)
}

// evictShardLocked drops the shard's least-recently-used cell arrays
// until it fits its budget share (but never below the working-set
// floor). The byte budget is divided among the shards that have ever
// held live arrays — not statically by shard count — so a sweep
// concentrated on one bank can use the entire budget while an all-bank
// sweep splits it evenly. A shard never returns to inactive (the floor
// keeps its hottest rows resident), so the share only shrinks as the
// workload touches more banks. Evicted rows keep their calibration and
// minU; the arrays rebuild deterministically.
func (m *Model) evictShardLocked(s *calibShard) {
	active := m.activeShards.Load()
	if active < 1 {
		active = 1
	}
	budget := m.cacheBudget / active
	for s.liveBytes > budget && s.liveCount > cacheMinRowsPerShard && s.lruTail != nil {
		e := s.lruTail
		s.lruUnlink(e)
		s.liveBytes -= e.cells.bytes
		s.liveCount--
		e.cells = nil
	}
}

// shardOf selects the lock domain for a row's bank.
func (m *Model) shardOf(loc RowLoc) *calibShard {
	h := splitmix64(uint64(loc.Channel)<<40 ^ uint64(loc.Pseudo)<<32 ^ uint64(loc.Bank))
	return &m.shards[h&(cacheShards-1)]
}

// lockEntry returns the row's cache entry with its shard lock held,
// creating the entry (seed + trial-jitter spread, both cheap) on first
// touch. The caller must unlock the returned shard.
func (m *Model) lockEntry(loc RowLoc) (*calibShard, *rowEntry) {
	s := m.shardOf(loc)
	s.mu.Lock()
	e := s.rows[loc]
	if e == nil {
		rowSeed := hashN(m.prof.Seed, saltRow, uint64(loc.Channel), uint64(loc.Pseudo), uint64(loc.Bank), uint64(loc.Row))
		sigma := trialTightSigma
		if u := unit(mix(rowSeed, saltTrial)); u >= 0.9 {
			sigma = trialLooseBase + (u-0.9)/0.1*trialLooseSpan
		}
		e = &rowEntry{loc: loc, rowSeed: rowSeed, trialSigma: sigma}
		s.rows[loc] = e
	}
	return s, e
}

// ensureCellsLocked materializes (or LRU-refreshes) the row's cell
// arrays: one pass over the per-cell hash stream filling h, the
// orientation mask and the per-word minima, then the word-cluster
// factors. Also derives the row's minU anchor the first time.
func (m *Model) ensureCellsLocked(s *calibShard, e *rowEntry) *cellArrays {
	if e.cells != nil {
		s.lruTouch(e)
		return e.cells
	}
	words := (m.rowBits + 63) / 64
	ca := &cellArrays{
		h:        make([]uint64, m.rowBits),
		wf:       make([]float64, words),
		wordMinU: make([]float64, words),
		orient:   make([]uint64, words),
		bytes:    int64(m.rowBits)*8 + int64(words)*8*4,
	}
	for w := range ca.wordMinU {
		ca.wordMinU[w] = 1
	}
	cut := uint64(m.pTrueOf(dieOfN(e.loc.Channel, m.org.Channels)) * (1 << 11))
	minU := 1.0
	for idx := 0; idx < m.rowBits; idx++ {
		h := splitmix64(e.rowSeed + uint64(idx)*cellStride)
		ca.h[idx] = h
		// Branch-free h&0x7FF < cut: the difference wraps to a set top
		// bit exactly when the cell is a true cell.
		ca.orient[idx>>6] |= (h&0x7FF - cut) >> 63 << (uint(idx) & 63)
		u := (float64(h>>11) + 0.5) / (1 << 53)
		if u < ca.wordMinU[idx>>6] {
			ca.wordMinU[idx>>6] = u
		}
		if u < minU {
			minU = u
		}
	}
	wordSeed := hashN(e.rowSeed, saltWord) // hashN(rowSeed, saltWord, w) = mix(wordSeed, w)
	for w := 0; w < words; w++ {
		wf := wordFactor(mix(wordSeed, uint64(w)))
		ca.wf[w] = wf
		if wf > ca.maxWF {
			ca.maxWF = wf
		}
	}
	if !e.haveMinU {
		e.minU, e.haveMinU = minU, true
	}
	e.cells = ca
	s.lruPushFront(e)
	s.liveBytes += ca.bytes
	if s.liveCount++; s.liveCount == 1 {
		m.activeShards.Add(1)
	}
	m.evictShardLocked(s)
	return ca
}

// ensureBaseLocked returns the row's minU-free calibration terms for the
// model's current temperature/age generation. They need no cell state, so
// the row-level skip bound can run on a row whose cells were never built.
func (m *Model) ensureBaseLocked(e *rowEntry) *rowCalib {
	if e.baseGen != m.gen+1 {
		e.calib = m.computeBase(e.loc, e.rowSeed)
		e.baseGen = m.gen + 1
	}
	return &e.calib
}

// ensureCalibLocked returns the row's calibration for the model's current
// temperature/age generation, recomputing it from the cached minU anchor
// when stale. The full-row scan is only ever paid once per row (inside
// ensureCellsLocked), no matter how often temperature or age changes.
func (m *Model) ensureCalibLocked(s *calibShard, e *rowEntry) rowCalib {
	if e.calibGen == m.gen+1 {
		return e.calib
	}
	base := *m.ensureBaseLocked(e)
	if !e.haveMinU {
		m.ensureCellsLocked(s, e)
	}
	e.calib = m.anchor(base, e.minU)
	e.calibGen = m.gen + 1
	return e.calib
}

// ensureRetMinsLocked builds the per-word minimum retention uniforms,
// letting retention-active evaluations skip whole words the same way the
// hammer path does.
func ensureRetMinsLocked(ca *cellArrays) {
	if ca.retOK {
		return
	}
	rm := make([]float64, len(ca.wordMinU))
	for w := range rm {
		rm[w] = 1
	}
	for idx, h := range ca.h {
		if u := unit(splitmix64(h ^ saltRetention)); u < rm[idx>>6] {
			rm[idx>>6] = u
		}
	}
	ca.retMinU = rm
	ca.retOK = true
}

// prepareRow returns everything ColFlipMask needs in one trip through the
// shard lock: a current calibration and the row's immutable cell arrays.
func (m *Model) prepareRow(loc RowLoc) (rowCalib, *cellArrays) {
	s, e := m.lockEntry(loc)
	ca := m.ensureCellsLocked(s, e)
	rc := m.ensureCalibLocked(s, e)
	s.mu.Unlock()
	return rc, ca
}

// prepareFlip is prepareRow for FlipMask. It also returns the row's
// pattern jitter for the victim's fill byte and, for a hammer-only call,
// first checks the row-level skip bound, which needs no cell state: skip
// reports that the call provably flips nothing, and then no cell arrays
// were built. Retention minima are built when the call needs them.
func (m *Model) prepareFlip(loc RowLoc, victimByte byte, dose Dose, hammer, retention bool) (rc rowCalib, ca *cellArrays, patJit float64, skip bool) {
	s, e := m.lockEntry(loc)
	defer s.mu.Unlock()
	if hammer {
		if e.patJit == 0 || e.patByte != victimByte {
			e.patJit, e.patByte = patJitter(e.rowSeed, victimByte), victimByte
		}
		patJit = e.patJit
		if !retention && m.belowFlipBound(e, dose, patJit) {
			return rowCalib{}, nil, patJit, true
		}
	}
	ca = m.ensureCellsLocked(s, e)
	rc = m.ensureCalibLocked(s, e)
	if retention {
		ensureRetMinsLocked(ca)
	}
	return rc, ca, patJit, false
}

// belowFlipBound reports whether a hammer-only dose provably flips no
// cell of the row. It reads only terms that do not depend on the row's
// weakest cell (lnHC1, sigTail, orientC, the pattern jitter and the word
// factors), so it runs before the row's cells are ever drawn.
//
// Why the skip is exact. Every combo's effective ln dose is at most ln D
// with D = (Above+Below)*coupleAggrOpp*coupleIntraDiff*max(orientC)*patJit.
// Let z0 = Probit(minU) and Delta = (ln D - lnHC1)/sigTail. The anchored
// curve has zAnchor = min(z0+zEligGap, zJ-0.3) and lnTJ > lnHC1, so when
// Delta < -zEligGap every combo sits in the tail regime with flip
// probability p <= Phi(min(z0+zEligGap, zJ-0.3) + Delta). A cell flips
// only if its uniform u < 1-(1-p)^wf <= max(1,wf)*p, and every u >= minU =
// Phi(z0). Phi is log-concave and zEligGap+Delta < 0, so
// Phi(min(z0+zEligGap, zJ-0.3)+Delta) / Phi(z0) rises with z0 up to
// z0 = zJ-0.3-zEligGap and falls after it; its peak is
// Phi(zJ-0.3+Delta) / Phi(zJ-0.3-zEligGap). Hence
// max(1,maxWF)*Phi(zJ-0.3+Delta) < Phi(zJ-0.3-zEligGap) rules out every
// flip whatever minU turns out to be. The check demands half of that
// (boundCeil), which absorbs rounding in math.Pow, Probit's ~1e-9
// approximation error and the ulp-level ties in the word-factor maximum.
func (m *Model) belowFlipBound(e *rowEntry, dose Dose, patJit float64) bool {
	base := m.ensureBaseLocked(e)
	d := (math.Max(dose.Above, 0) + math.Max(dose.Below, 0)) *
		coupleAggrOpp * coupleIntraDiff * math.Max(base.orientC[0], base.orientC[1]) * patJit
	delta := (math.Log(d) - base.lnHC1) / base.sigTail
	if !(delta < -m.zEligGap) {
		return false
	}
	if e.boundWF == 0 {
		e.boundWF = math.Max(1, m.maxWordFactor(e.rowSeed))
	}
	return e.boundWF*stats.NormalCDF(m.zJunction-0.3+delta) < m.boundCeil
}

// maxWordFactor returns the largest word-cluster factor of a row without
// building the per-word array: the factor is increasing in its word's
// hash, so it is the factor of the largest hash.
func (m *Model) maxWordFactor(rowSeed uint64) float64 {
	wordSeed := hashN(rowSeed, saltWord)
	var top uint64
	for w := 0; w < (m.rowBits+63)/64; w++ {
		if h := mix(wordSeed, uint64(w)) >> 11; h > top {
			top = h
		}
	}
	return wordFactor(top << 11)
}

// wordFactor is the mean-one log-normal cluster factor of the word whose
// hash is h.
func wordFactor(h uint64) float64 {
	return math.Exp(wordClusterSigma*normal(h) - wordClusterSigma*wordClusterSigma/2)
}

// SetCellCacheBytes bounds the memory the model spends on materialized
// per-cell state (default 64 MiB). The bound is approximate (the budget
// is shared among the shards currently holding live arrays, each with a
// small working-set floor); rows beyond it are evicted LRU and rebuilt
// deterministically on next touch, so the setting trades memory for
// rebuild time and can never change results. Not safe concurrently with
// evaluation.
func (m *Model) SetCellCacheBytes(n int64) {
	if n < 0 {
		n = 0
	}
	m.cacheBudget = n
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		if s.liveCount > 0 {
			m.evictShardLocked(s)
		}
		s.mu.Unlock()
	}
}
