package disturb

import (
	"math"
	"math/bits"
	"sync"

	"hbmrd/internal/stats"
)

// This file implements the model's per-row state cache: the derived
// calibration parameters plus a compact summary of the per-cell
// randomness (orientation bitmask, word-cluster factors and weak-cell
// band masks) that FlipMask and ColFlipMask read. The cache is sharded
// by bank so concurrent sweep workers on different channels never contend
// on one lock, and the cell arrays sit behind a per-model byte budget with
// LRU eviction (the tiny per-row calibration stays cached forever).
//
// A row's state is built in stages, each only when a call needs it. The
// entry (seed, trial-jitter spread) exists from the first touch. The
// calibration terms that do not depend on the row's weakest cell
// (computeBase), the pattern jitter and the largest word factor are all a
// hammer-only FlipMask needs to apply the row-level skip bound
// (belowFlipBound); most calls on aggressor rows stop there. The cell
// arrays, and with them the minU anchor that completes the calibration
// (anchor), are built in one pass over the hash stream when a call can
// flip a cell, or when a caller needs the full calibration. The bands of
// the retention and column-disturb uniforms are built on the row's first
// retention-active FlipMask and first ColFlipMask.
//
// No per-cell hash is stored. A weak-cell band mask says which cells of a
// word have a uniform under a power-of-two level; a call visits only the
// cells under the smallest level above its per-word flip-probability
// bound and recomputes their hashes. Every other cell has a uniform above
// every probability of the call and provably does not flip.
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

	// defaultCellCacheBytes bounds the cell arrays per model. At the
	// paper's 1 KiB rows one row costs 8 KiB (orientation, six band masks
	// and the word factor per 64-bit word), so the default keeps about
	// 8,000 rows' cell state live; the bands of the retention and column
	// uniforms add 6 KiB each to the rows that use them. Evicted rows
	// rebuild deterministically on next touch.
	defaultCellCacheBytes = 64 << 20

	// cacheMinRowsPerShard keeps eviction from thrashing the active
	// working set (a double-sided hammer touches a victim and four
	// neighbours) even under an adversarially small budget.
	cacheMinRowsPerShard = 8

	// numBands is the number of weak-cell bands per word (see bandOf).
	numBands = 6

	// powMargin is the absolute slack on the flip-probability bound
	// max(1, wf)*p >= 1-(1-p)^wf. The inequality is exact in real
	// arithmetic; math.Pow and the rounding of 1-p move the computed
	// right side by a few 1e-16 at most.
	powMargin = 1e-12
)

// bandLevel holds the upper levels of bands 0..numBands-2; the last band
// holds every uniform at or above the last level.
var bandLevel = [numBands - 1]float64{0x1p-10, 0x1p-8, 0x1p-6, 0x1p-4, 0x1p-2}

// bandOf returns the band of the uniform (x+0.5)/2^53 of a 53-bit draw x:
// band i < numBands-1 holds uniforms in [bandLevel[i-1], bandLevel[i])
// (from 0 for band 0). The uniform is below 2^-k exactly when x < 2^(53-k),
// that is when bits.Len64(x) <= 53-k, so two bit lengths map to each band.
func bandOf(x uint64) int { return (bits.Len64(x|1<<42) - 42) >> 1 }

// bandsFor returns how many bands, counted from band 0, hold every cell
// whose uniform can be below b: those under the smallest level above b,
// or all of them when no level is above b.
func bandsFor(b float64) int {
	n := 1
	for n < numBands && bandLevel[n-1] <= b {
		n++
	}
	return n
}

// bandSet holds numBands masks per 64-bit word, band-major: mask
// i*words+w has a bit set for each cell of word w in band i. Every cell is
// in exactly one band. Band 0 of a row is contiguous, so the scan a call
// near the flip threshold makes reads one mask per word from 1 KiB.
type bandSet []uint64

// below returns the cells of word w in the first n bands.
func (bs bandSet) below(w, n int) uint64 {
	words := len(bs) / numBands
	var c uint64
	for i := 0; i < n; i++ {
		c |= bs[i*words+w]
	}
	return c
}

// cands returns the cells of word w, whose word factor is wf, that can
// have a uniform below the word's flip-probability bound
// wordBound(max(1, wf), maxP): those in the bands under the first level
// above it. nRow, the band count for the row's largest word factor, is the
// call's row-wide prefilter, so a word with no cell in those bands costs
// one lookup.
func (bs bandSet) cands(w, nRow int, wf, maxP float64) uint64 {
	c := bs.below(w, nRow)
	if c != 0 && nRow > 1 {
		if n := bandsFor(wordBound(math.Max(1, wf), maxP)); n < nRow {
			c = bs.below(w, n)
		}
	}
	return c
}

// wordBound bounds the flip probability 1-(1-p)^wf of a cell in a word
// with wfB = max(1, wf): it is at most max(1, wf)*p, plus powMargin for
// rounding (TestEffPBound). A cell whose uniform is not below it cannot
// flip at p.
func wordBound(wfB, p float64) float64 { return wfB*p + powMargin }

// set stores the band masks of word w.
func (bs bandSet) set(w int, band *[numBands]uint64) {
	words := len(bs) / numBands
	for i, m := range band {
		bs[i*words+w] = m
	}
}

// cellArrays is the materialized per-cell state of one row. orient, ham
// and wf are immutable once built; ret and col are set once, under the
// shard lock, and read only by callers that observed them under it.
type cellArrays struct {
	// orient is the orientation bitmask (bit set = true cell, stores
	// charge for logical 1). The true-cell fraction depends only on the
	// chip seed and the row's die, so the mask is cut in the same pass
	// that sorts the cells into bands.
	orient []uint64
	// ham holds the bands of the threshold uniform u = (h>>11 + 0.5)/2^53.
	// It shares one allocation with orient.
	ham bandSet
	// ret and col hold the bands of the retention uniform
	// unit(splitmix64(h ^ saltRetention)) and the column-disturb uniform
	// unit(splitmix64(h ^ saltCol)); nil until first used.
	ret, col bandSet
	// wf is the per-64-bit-word cluster factor (mean-one log-normal).
	wf []float64
	// bytes is the cache charge for this row; it grows when ret or col is
	// built.
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

	// Terms that no generation changes: max(1, max wf), the word factor
	// of the row-level skip bound and of the kernels' band prefilter
	// (boundWFLocked), and the pattern jitter of the last victim fill byte
	// seen (both positive once computed, 0 before).
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
// arrays: one pass over the per-cell hash stream filling the orientation
// mask and the threshold-uniform bands, then the word-cluster factors.
// Also derives the row's minU anchor the first time.
func (m *Model) ensureCellsLocked(s *calibShard, e *rowEntry) *cellArrays {
	if e.cells != nil {
		s.lruTouch(e)
		return e.cells
	}
	words := (m.rowBits + 63) / 64
	buf := make([]uint64, words*(1+numBands))
	ca := &cellArrays{
		orient: buf[:words:words],
		ham:    bandSet(buf[words:]),
		wf:     make([]float64, words),
		bytes:  int64(len(buf)+words) * 8,
	}
	cut := uint64(m.pTrueOf(dieOfN(e.loc.Channel, m.org.Channels)) * (1 << 11))
	minX := uint64(math.MaxUint64)
	seed := e.rowSeed // rowSeed + idx*cellStride
	for w := range ca.orient {
		var orient uint64
		var band [numBands]uint64
		for k := 0; k < 64 && w<<6+k < m.rowBits; k++ {
			h := splitmix64(seed)
			seed += cellStride
			// Branch-free h&0x7FF < cut: the difference wraps to a set top
			// bit exactly when the cell is a true cell.
			orient |= (h&0x7FF - cut) >> 63 << k
			x := h >> 11
			band[bandOf(x)] |= 1 << k
			minX = min(minX, x)
		}
		ca.orient[w] = orient
		ca.ham.set(w, &band)
	}
	wordSeed := hashN(e.rowSeed, saltWord) // hashN(rowSeed, saltWord, w) = mix(wordSeed, w)
	for w := range ca.wf {
		ca.wf[w] = wordFactor(mix(wordSeed, uint64(w)))
	}
	if !e.haveMinU {
		// u is monotone in h>>11, so the weakest cell's uniform is the
		// uniform of the smallest draw.
		e.minU, e.haveMinU = (float64(minX)+0.5)/(1<<53), true
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

// ensureBandsLocked returns the bands of the row's uniform
// unit(splitmix64(h ^ salt)) held in *bs (ca.ret or ca.col), building them
// on first use and charging them to the shard's budget.
func (m *Model) ensureBandsLocked(s *calibShard, e *rowEntry, ca *cellArrays, bs *bandSet, salt uint64) bandSet {
	if *bs != nil {
		return *bs
	}
	b := make(bandSet, len(ca.orient)*numBands)
	seed := e.rowSeed // rowSeed + idx*cellStride
	for w := range ca.orient {
		var band [numBands]uint64
		for k := 0; k < 64 && w<<6+k < m.rowBits; k++ {
			band[bandOf(splitmix64(splitmix64(seed)^salt)>>11)] |= 1 << k
			seed += cellStride
		}
		b.set(w, &band)
	}
	*bs = b
	n := int64(len(b)) * 8
	ca.bytes += n
	s.liveBytes += n
	m.evictShardLocked(s)
	return b
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
// The calibration is not written again until the generation changes, and
// SetTempC and SetAgeMonths must not run concurrently with evaluation, so
// callers may read through the returned pointer after unlocking.
func (m *Model) ensureCalibLocked(s *calibShard, e *rowEntry) *rowCalib {
	if e.calibGen == m.gen+1 {
		return &e.calib
	}
	base := *m.ensureBaseLocked(e)
	if !e.haveMinU {
		m.ensureCellsLocked(s, e)
	}
	e.calib = m.anchor(base, e.minU)
	e.calibGen = m.gen + 1
	return &e.calib
}

// prepareRow returns everything ColFlipMask needs in one trip through the
// shard lock: a current calibration, the row's cell arrays, its
// column-uniform bands and its max(1, max wf).
func (m *Model) prepareRow(loc RowLoc) (rc *rowCalib, ca *cellArrays, col bandSet, wfB float64) {
	s, e := m.lockEntry(loc)
	defer s.mu.Unlock()
	ca = m.ensureCellsLocked(s, e)
	return m.ensureCalibLocked(s, e), ca, m.ensureBandsLocked(s, e, ca, &ca.col, saltCol), m.boundWFLocked(e)
}

// prepareFlip is prepareRow for FlipMask. It also returns the row's
// pattern jitter for the victim's fill byte and, for a hammer-only call,
// first checks the row-level skip bound, which needs no cell state: skip
// reports that the call provably flips nothing, and then no cell arrays
// were built. The retention-uniform bands (ret) are returned when the call
// needs them, and wfB is the row's max(1, max wf).
func (m *Model) prepareFlip(loc RowLoc, victimByte byte, dose Dose, hammer, retention bool) (rc *rowCalib, ca *cellArrays, ret bandSet, patJit, wfB float64, skip bool) {
	s, e := m.lockEntry(loc)
	defer s.mu.Unlock()
	if hammer {
		if e.patJit == 0 || e.patByte != victimByte {
			e.patJit, e.patByte = patJitter(e.rowSeed, victimByte), victimByte
		}
		patJit = e.patJit
		if !retention && m.belowFlipBound(e, dose, patJit) {
			return nil, nil, nil, patJit, 0, true
		}
	}
	ca = m.ensureCellsLocked(s, e)
	rc = m.ensureCalibLocked(s, e)
	if retention {
		ret = m.ensureBandsLocked(s, e, ca, &ca.ret, saltRetention)
	}
	return rc, ca, ret, patJit, m.boundWFLocked(e), false
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
	return m.boundWFLocked(e)*stats.NormalCDF(m.zJunction-0.3+delta) < m.boundCeil
}

// boundWFLocked returns the row's max(1, max wf), computing it on first
// use. It needs no cell state, and it stays cached when the cell arrays
// are evicted. TestBoundWordFactor checks it against the built arrays.
func (m *Model) boundWFLocked(e *rowEntry) float64 {
	if e.boundWF == 0 {
		e.boundWF = math.Max(1, m.maxWordFactor(e.rowSeed))
	}
	return e.boundWF
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
