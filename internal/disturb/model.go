package disturb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"hbmrd/internal/stats"
)

// RowBytes and RowBits give the size of one DRAM row in the tested HBM2
// chips (1 KiB rows, §3).
const (
	RowBytes = 1024
	RowBits  = RowBytes * 8
)

// Calibration constants. These are the model's single source of truth; all
// of them trace back to a specific number or observation in the paper (see
// the comment on each).
const (
	// refHammer is the per-aggressor hammer count at which per-row BER
	// targets are calibrated. The paper measures BER (and breaks WCDP
	// ties) at 256K.
	refHammer = 256 * 1024

	// doseSides folds the two sides of the paper's double-sided access
	// pattern into calibration dose space: at a hammer count of N, the
	// victim receives dose from both aggressors.
	doseSides = 2.0

	// eligibleFrac is the nominal fraction of cells stored in their charged
	// state under the Table 1 patterns (true-/anti-cell mix), used when
	// translating row-level BER targets into per-cell quantiles.
	eligibleFrac = 0.5

	// Dose-coupling multipliers. An aggressor bit opposite to the victim
	// bit couples more strongly than an identical bit; a victim bit whose
	// intra-row neighbours differ couples more strongly than one inside a
	// uniform run. Checkered/rowstripe mean BER ratio in the paper is
	// 0.76/0.67 = 1.13, which the intraDiff/intraSame ratio reproduces.
	coupleAggrOpp   = 1.06
	coupleAggrSame  = 0.82
	coupleIntraDiff = 1.07
	coupleIntraSame = 0.94

	// calibCouple is the reference coupling product for the worst-case data
	// pattern (aggrOpp * intraDiff), in whose dose-space the per-row BER
	// and HCfirst targets are specified.
	calibCouple = coupleAggrOpp * coupleIntraDiff

	// patJitterSigma adds a per-(row, victim fill byte) log-normal wobble so
	// no single data pattern wins on every row (Obsv 9: "no data pattern
	// individually achieves the smallest HCfirst").
	patJitterSigma = 0.06

	// wordClusterSigma spreads vulnerability between 64-bit words within a
	// row (mean-one log-normal scaling of the per-cell flip probability).
	// Real DRAM weak cells cluster spatially; the paper's Fig 17 finds
	// that most words with any bitflip hold more than one. Without this
	// term i.i.d. cells under-produce multi-bit words.
	wordClusterSigma = 0.55

	// orientCoupleSigma spreads vulnerability between true and anti cells
	// per die, which is what makes Rowstripe0 and Rowstripe1 differ within
	// a channel (the paper sees median HCfirst ratios up to ~1.37).
	orientCoupleSigma = 0.08

	// Tail-regime parameters. The tail spread is chosen so that the
	// *additional* hammers from the 1st to the 10th bitflip shrink as the
	// row's HCfirst multiplier m grows: extra ~ tailExtraB*HCfloor/m^0.5,
	// i.e. sigTail = ln(1 + tailExtraB/m^1.5)/gap. This reproduces Fig 12's
	// negative Pearson correlation (-0.34..-0.45 in the paper) and keeps
	// the HC10th/HC1st ratio within the paper's observed 1.15..5.22 range
	// with a mean of ~1.7 (Obsv 14).
	tailExtraB     = 6.0
	tailExtraExp   = 1.5
	tailJitterSig  = 0.35
	sigTailMin     = 0.222
	sigTailMax     = 2.6
	bulkSigmaFloor = 0.50
	bulkSigmaDflt  = 0.60

	// Retention model: per-cell log-normal retention time with median
	// retMedianSec at retRefTempC, halving every +10 C. Calibrated against
	// the paper's retention BER measurements (0%, 0.013%, 0.134% at
	// 34.8 ms, 1.17 s, 10.53 s).
	retMedianSec = 2.7e5
	retSigma     = 3.3
	retRefTempC  = 55.0
	// retMinElapsedSec is the shortest disarmed interval: below this no
	// retention failures are possible (manufacturer-guaranteed window).
	retMinElapsedSec = 0.030

	// Trial-to-trial jitter (Fig 13): ~90% of rows are tight (max/min
	// HCfirst over 50 trials below ~1.09x), the rest progressively looser
	// (the paper's loosest row reaches 2.23x).
	trialTightSigma = 0.015
	trialLooseBase  = 0.03
	trialLooseSpan  = 0.15

	// Aging drift (Fig 10): per-row vulnerability drift rate in ln-dose
	// units per sqrt(month), slightly biased toward more vulnerable
	// (paper: 18713 rows up vs 17973 rows down after 7 months).
	agingDriftMu    = 0.02
	agingDriftSigma = 0.105

	// tempHCSlope makes chips marginally more vulnerable when hot.
	tempHCSlope = 0.002

	// wcdpHeadroom compensates the HCfirst calibration for the worst-case
	// composition the WCDP selection applies on top of the reference
	// coupling: the best of four patterns rides the upper tail of the
	// pattern jitter, orientation coupling, and trial jitter (together
	// ~x0.85 on the realized minimum). Without this factor the measured
	// per-chip minimum HCfirst lands well below the paper's values.
	wcdpHeadroom = 1.18
)

// Org is the minimal chip organization the fault model needs: enough to
// derive per-die factors, the subarray floorplan, and the quantile anchors
// that calibrate row-level targets to the number of cells per row.
type Org struct {
	// Channels is the stack's channel count (die mapping folds channel
	// pairs onto the four stacked dies).
	Channels int
	// Ranks is the number of ranks per pseudo channel (0 means 1). Rank
	// only widens the flat bank address space the per-bank salts already
	// cover, so it does not change any derived factor — it is carried for
	// validation and so multi-rank organizations are explicit here too.
	Ranks int
	// RowsPerBank is the number of rows per bank (sizes the floorplan).
	RowsPerBank int
	// RowBytes is the size of one row.
	RowBytes int
}

// DefaultOrg returns the paper's HBM2 organization.
func DefaultOrg() Org {
	return Org{Channels: 8, Ranks: 1, RowsPerBank: RowsPerBank, RowBytes: RowBytes}
}

// Validate reports an unusable organization.
func (o Org) Validate() error {
	if o.Channels <= 0 || o.RowsPerBank <= 0 || o.RowBytes <= 0 {
		return fmt.Errorf("disturb: org fields must be positive: %+v", o)
	}
	if o.Ranks < 0 {
		return fmt.Errorf("disturb: org Ranks must be non-negative (0 means 1): %+v", o)
	}
	return nil
}

// Hash salts, one per independent random field of the model.
const (
	saltRow     uint64 = 0xA1
	saltPC      uint64 = 0xA2
	saltBank    uint64 = 0xA3
	saltBERJit  uint64 = 0xA4
	saltHCMult  uint64 = 0xA5
	saltAging   uint64 = 0xA6
	saltTailJit uint64 = 0xA7
	saltOrientP uint64 = 0xA8
	saltOrientC uint64 = 0xA9
	saltTrial   uint64 = 0xAA
	saltEpoch   uint64 = 0xAB
	saltPatJit  uint64 = 0xAC
	saltWord    uint64 = 0xAD
	// saltCol feeds the column-disturb (bitline) fields: the per-row
	// threshold jitter and the per-cell flip draw (see coldisturb.go).
	saltCol uint64 = 0xAE
	// saltRetention decorrelates the retention draw from the threshold
	// draw of the same cell.
	saltRetention uint64 = 0x52455453414C54
)

// cellStride spreads consecutive cell indices across the hash space.
const cellStride = 0x9E3779B97F4A7C15

// RowLoc addresses one physical row inside a chip. Index ranges follow the
// chip's organization (for the paper's HBM2 part: channel 0-7, pseudo
// channel 0-1, bank 0-15, row 0-16383).
type RowLoc struct {
	Channel int
	Pseudo  int
	Bank    int
	Row     int
}

// Dose is the accumulated, amplification- and jitter-scaled disturbance a
// victim row has received from each side since it was last restored,
// measured in reference (minimum-tRAS) aggressor activations.
type Dose struct {
	Above float64 // from physical row Victim+1 (and a small share of +2)
	Below float64 // from physical row Victim-1 (and a small share of -2)
}

// Total returns the summed dose from both sides.
func (d Dose) Total() float64 { return d.Above + d.Below }

// Model evaluates the read-disturbance fault physics of one chip.
// Evaluation methods are safe for concurrent use; the Set* configuration
// methods must not be called concurrently with evaluation.
type Model struct {
	prof      Profile
	org       Org
	fp        *Floorplan
	rowBits   int
	tempC     float64
	ageMonths float64

	// Quantile anchors in probit space, derived from the organization's
	// cells-per-row count: zJunction is the tail/bulk regime boundary (the
	// expected quantile of the ~50th weakest eligible cell); zEligGap
	// corrects the realized all-cell minimum quantile to the expected
	// eligible-cell minimum; zTenthGap is the expected quantile gap between
	// the weakest and the 10th weakest eligible cell.
	zJunction, zEligGap, zTenthGap float64

	// boundCeil is half of Phi(zJunction-0.3-zEligGap): a hammer-only call
	// whose row-level bound falls below it flips nothing (belowFlipBound).
	boundCeil float64

	// gen is the calibration generation, bumped by SetTempC/SetAgeMonths;
	// cached per-row calibrations are lazily recomputed when stale. The
	// per-cell state (hash draws, orientation, word factors) never depends
	// on temperature or age and survives generation bumps.
	gen uint64

	// Per-bank sharded row cache (see cellstate.go): calibration plus the
	// materialized per-cell randomness behind cacheBudget bytes of LRU,
	// split among the shards that currently hold live arrays.
	cacheBudget  int64
	activeShards atomic.Int64
	shards       [cacheShards]calibShard
}

// NewModel validates the profile and builds a fault model for it with the
// paper's HBM2 organization. The model starts at the profile's operating
// temperature and starting age.
func NewModel(p Profile) (*Model, error) {
	return NewModelFor(p, DefaultOrg())
}

// NewModelFor builds a fault model for a profile under an arbitrary chip
// organization: the subarray floorplan scales to the bank's row count and
// the quantile anchors to the row's cell count. With DefaultOrg the model
// is identical to NewModel's.
func NewModelFor(p Profile, org Org) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := org.Validate(); err != nil {
		return nil, err
	}
	rowBits := org.RowBytes * 8
	m := &Model{
		prof:      p,
		org:       org,
		fp:        NewFloorplan(org.RowsPerBank),
		rowBits:   rowBits,
		tempC:     p.OperatingTempC,
		ageMonths: p.AgeMonthsAtStart,
		zJunction: stats.Probit(50.0 / (float64(rowBits)*eligibleFrac + 1)),
		zEligGap: stats.Probit(1.0/(float64(rowBits)*eligibleFrac+1)) -
			stats.Probit(1.0/(float64(rowBits)+1)),
		zTenthGap: stats.Probit(10.0/(float64(rowBits)*eligibleFrac+1)) -
			stats.Probit(1.0/(float64(rowBits)*eligibleFrac+1)),
		cacheBudget: defaultCellCacheBytes,
	}
	m.boundCeil = 0.5 * stats.NormalCDF(m.zJunction-0.3-m.zEligGap)
	for i := range m.shards {
		m.shards[i].rows = make(map[RowLoc]*rowEntry)
	}
	return m, nil
}

// Floorplan returns the model's subarray layout.
func (m *Model) Floorplan() *Floorplan { return m.fp }

// Profile returns the profile the model was built from.
func (m *Model) Profile() Profile { return m.prof }

// TempC returns the current chip temperature in Celsius.
func (m *Model) TempC() float64 { return m.tempC }

// SetTempC changes the chip temperature (affects retention and, mildly,
// hammer vulnerability). Not safe concurrently with evaluation.
func (m *Model) SetTempC(c float64) {
	m.tempC = c
	m.resetCalib()
}

// AgeMonths returns the chip's current powered-on age in months.
func (m *Model) AgeMonths() float64 { return m.ageMonths }

// SetAgeMonths advances (or rewinds) the chip's age, drifting per-row
// vulnerability per the aging model. Not safe concurrently with evaluation.
func (m *Model) SetAgeMonths(months float64) {
	if months < 0 {
		months = 0
	}
	m.ageMonths = months
	m.resetCalib()
}

// resetCalib invalidates every cached per-row calibration by bumping the
// generation; entries recalibrate lazily from their cached minU anchor on
// next touch (no full-row rescan, no cache clear).
func (m *Model) resetCalib() {
	m.gen++
}

// rowCalib holds the derived per-row threshold-curve parameters. It is
// built in two stages: computeBase fills every term that does not depend
// on the row's weakest cell, and anchor completes the curve once the
// row's realized minimum uniform is known (see cellstate.go).
type rowCalib struct {
	rowSeed uint64
	zAnchor float64 // realized weakest-cell quantile (eligible-corrected)
	lnHC1   float64 // ln threshold at zAnchor (dose space incl. both sides)
	sigTail float64
	lnTJ    float64 // ln threshold at the tail/bulk junction
	lnM     float64 // bulk log-normal location
	sigBulk float64
	pTrue   float64    // fraction of true cells (charged state = 1)
	orientC [2]float64 // coupling multiplier per orientation (0=anti, 1=true)
	lnRet   float64    // ln median cell retention (seconds) at current temp
	z256    float64    // probit of the eligible-cell BER target at refHammer
	lnRef   float64    // ln reference dose (refHammer, both sides, aged)
}

func (m *Model) calibRow(loc RowLoc) rowCalib {
	s, e := m.lockEntry(loc)
	rc := m.ensureCalibLocked(s, e)
	s.mu.Unlock()
	return rc
}

// computeBase derives the row's calibration terms that do not depend on
// its weakest cell: the BER and HCfirst targets, aging shift, tail spread,
// orientation and retention. anchor completes the curve.
func (m *Model) computeBase(loc RowLoc, rowSeed uint64) rowCalib {
	seed := m.prof.Seed
	die := dieOfN(loc.Channel, m.org.Channels)

	// ---- BER target (fraction of the row's 8192 bits at refHammer). ----
	berT := m.prof.BaseBERPercent / 100
	berT *= m.prof.DieBERFactor[die]
	berT *= lognormal(hashN(seed, saltPC, uint64(loc.Channel), uint64(loc.Pseudo)), 0, 0.03)
	berT *= lognormal(hashN(seed, saltBank, uint64(loc.Channel), uint64(loc.Pseudo), uint64(loc.Bank)), 0, 0.06)
	berT *= m.fp.Shape(loc.Row)
	berT *= lognormal(mix(rowSeed, saltBERJit), 0, 0.18)
	// The floor guarantees Obsv 1 (bitflips in every tested row at the
	// reference hammer count): ~6 expected flips even in the most
	// resilient rows.
	if berT < 0.0008 {
		berT = 0.0008
	}
	if berT > 0.026 {
		berT = 0.026
	}

	// ---- HCfirst target. ----
	hcMult := 1 + gamma2(mix(rowSeed, saltHCMult), m.prof.HCGammaTheta)
	dieHC := dieHCFactor(m.prof, die)
	shapeHC := math.Pow(m.fp.Shape(loc.Row), -0.3)
	tempHC := 1 - tempHCSlope*(m.tempC-retRefTempC)
	hc1 := m.prof.HCFloor * wcdpHeadroom * dieHC * hcMult * shapeHC * tempHC

	// ---- Aging drift shifts the whole threshold curve in ln space,
	// relative to the age at which the chip was calibrated (the profile's
	// starting age: the paper measured the chips then). ----
	drift := agingDriftMu + agingDriftSigma*normal(mix(rowSeed, saltAging))
	shift := drift * (math.Sqrt(m.ageMonths) - math.Sqrt(m.prof.AgeMonthsAtStart))

	// ---- Tail regime. ----
	sigTail := math.Log(1+tailExtraB/math.Pow(hcMult, tailExtraExp)) / m.zTenthGap
	sigTail *= lognormal(mix(rowSeed, saltTailJit), 0, tailJitterSig)
	if sigTail < sigTailMin {
		sigTail = sigTailMin
	}
	if sigTail > sigTailMax {
		sigTail = sigTailMax
	}

	// ---- Orientation. ----
	var orientC [2]float64
	orientC[0] = lognormal(hashN(seed, saltOrientC, uint64(die), 0), 0, orientCoupleSigma)
	orientC[1] = lognormal(hashN(seed, saltOrientC, uint64(die), 1), 0, orientCoupleSigma)

	// ---- Retention (temperature-scaled). ----
	lnRet := math.Log(retMedianSec) + math.Ln2*(retRefTempC-m.tempC)/10

	return rowCalib{
		rowSeed: rowSeed,
		lnHC1:   math.Log(doseSides*hc1*calibCouple) - shift,
		sigTail: sigTail,
		pTrue:   m.pTrueOf(die),
		orientC: orientC,
		lnRet:   lnRet,
		z256:    stats.Probit(math.Min(berT/eligibleFrac, 0.9999)),
		lnRef:   math.Log(doseSides*refHammer*calibCouple) - shift,
	}
}

// pTrueOf is the fraction of true cells on a die. It depends only on the
// chip seed and the die, so the cell cache can cut the orientation mask
// before the row is calibrated.
func (m *Model) pTrueOf(die int) float64 {
	return 0.5 + 0.16*(unit(hashN(m.prof.Seed, saltOrientP, uint64(die)))-0.5)
}

// anchor completes a base calibration at the row's realized weakest-cell
// uniform minU (the minimum of the per-cell hash stream, materialized once
// by the cell cache).
func (m *Model) anchor(rc rowCalib, minU float64) rowCalib {
	// ---- Realized weakest-cell quantile. Anchoring the threshold curve
	// at the row's actual minimum keeps the realized HCfirst pinned to the
	// calibration target instead of drifting with extreme-value noise. ----
	zAnchor := stats.Probit(minU) + m.zEligGap
	if zAnchor > m.zJunction-0.3 {
		zAnchor = m.zJunction - 0.3
	}
	lnTJ := rc.lnHC1 + rc.sigTail*(m.zJunction-zAnchor)

	// ---- Bulk regime, anchored at the junction and hitting the BER
	// target at refHammer. ----
	var sigBulk, lnM float64
	if rc.z256 > m.zJunction+0.05 && rc.lnRef > lnTJ {
		sigBulk = (rc.lnRef - lnTJ) / (rc.z256 - m.zJunction)
		// The floor keeps the bulk curve from degenerating into a step at
		// the reference dose (a step would let coupling noise saturate the
		// row); floored rows undershoot their BER target slightly.
		if sigBulk < bulkSigmaFloor {
			sigBulk = bulkSigmaFloor
		}
		lnM = lnTJ - sigBulk*m.zJunction
	} else {
		// BER target unreachable above the junction (very resilient row or
		// very strong tail): continue with a default spread; the max()
		// against the junction threshold keeps the curve monotone.
		sigBulk = bulkSigmaDflt
		lnM = rc.lnRef - sigBulk*rc.z256
		if jm := lnTJ - sigBulk*m.zJunction; jm > lnM {
			lnM = jm
		}
	}
	rc.zAnchor, rc.lnTJ, rc.lnM, rc.sigBulk = zAnchor, lnTJ, lnM, sigBulk
	return rc
}

// patJitter is the row's dose-coupling wobble for a victim fill byte
// (patJitterSigma).
func patJitter(rowSeed uint64, victimByte byte) float64 {
	return lognormal(hashN(rowSeed, saltPatJit, uint64(victimByte)), 0, patJitterSigma)
}

// dieHCFactor converts a die's BER factor into an HCfirst factor, normalized
// so the most vulnerable die sits exactly at the chip's HC floor.
func dieHCFactor(p Profile, die int) float64 {
	maxBER := p.DieBERFactor[0]
	for _, f := range p.DieBERFactor[1:] {
		if f > maxBER {
			maxBER = f
		}
	}
	return math.Pow(maxBER/p.DieBERFactor[die], 0.35)
}

// thresholdCDF returns the probability that a cell's threshold quantile lies
// below the effective ln dose, i.e. the per-cell flip probability cutoff.
func (m *Model) thresholdCDF(rc rowCalib, lnDc float64) float64 {
	if math.IsInf(lnDc, -1) {
		return 0
	}
	if lnDc <= rc.lnTJ {
		z := rc.zAnchor + (lnDc-rc.lnHC1)/rc.sigTail
		return stats.NormalCDF(z)
	}
	z := (lnDc - rc.lnM) / rc.sigBulk
	if z < m.zJunction {
		z = m.zJunction
	}
	return stats.NormalCDF(z)
}

// TrialJitter returns the dose-effectiveness multiplier for the given
// restore epoch of a row. The paper observes (Fig 13) that a row's HCfirst
// varies across repeated experiments: most rows stay within ~9%, a minority
// swings up to ~2.2x.
func (m *Model) TrialJitter(loc RowLoc, epoch uint64) float64 {
	s, e := m.lockEntry(loc)
	rowSeed, sigma := e.rowSeed, e.trialSigma
	s.mu.Unlock()
	return lognormal(hashN(rowSeed, saltEpoch, epoch), 0, sigma)
}

// FlipMask evaluates which bits of the victim row flip given the
// accumulated dose and the time elapsed since the row was last restored.
// victim is the row's stored image; above and below are the current images
// of the physically adjacent rows (nil means never written, treated as
// all-zero). The flip mask is OR-ed into dst (which must have len(victim)
// bytes) and the number of newly set mask bits is returned.
//
// Determinism contract: the flip decision of every cell is a fixed
// function of the per-cell hash stream (see cellstate.go); evaluation
// order is unspecified. The word-level fast path below and the scalar
// fallback produce byte-identical masks (enforced by TestFlipMaskMatchesScalar
// and the repo-level golden-digest test).
func (m *Model) FlipMask(loc RowLoc, victim, above, below []byte, dose Dose, retElapsedSec float64, dst []byte) (int, error) {
	if len(dst) != len(victim) {
		return 0, fmt.Errorf("disturb: dst length %d != victim length %d", len(dst), len(victim))
	}
	hammer := dose.Above > 0 || dose.Below > 0
	retention := retElapsedSec > retMinElapsedSec
	if !hammer && !retention {
		return 0, nil
	}
	// The word-at-a-time path wants whole 64-bit words of the organization's
	// row size, with neighbour images that cover the victim; anything else
	// (odd buffer lengths, short neighbours) takes the scalar path.
	if len(victim) != m.org.RowBytes || m.rowBits&63 != 0 ||
		(above != nil && len(above) < len(victim)) ||
		(below != nil && len(below) < len(victim)) {
		return m.flipMaskScalar(m.calibRow(loc), victim, above, below, dose, retElapsedSec, dst)
	}

	rc, ca, patJit, skip := m.prepareFlip(loc, victim[0], dose, hammer, retention)
	if skip {
		return 0, nil
	}

	// Per-combo flip-probability cutoffs. Combo index bits:
	// bit0 aggressor-above opposite, bit1 aggressor-below opposite,
	// bit2 intra-row neighbour differs, bit3 orientation (1 = true cell).
	var pcrit [16]float64
	maxP := 0.0
	if hammer {
		aggF := [2]float64{coupleAggrSame, coupleAggrOpp}
		intraF := [2]float64{coupleIntraSame, coupleIntraDiff}
		for combo := 0; combo < 16; combo++ {
			deff := dose.Above*aggF[combo&1] + dose.Below*aggF[(combo>>1)&1]
			if deff <= 0 {
				continue
			}
			couple := intraF[(combo>>2)&1] * rc.orientC[(combo>>3)&1] * patJit
			p := m.thresholdCDF(rc, math.Log(deff*couple))
			pcrit[combo] = p
			if p > maxP {
				maxP = p
			}
		}
	}

	var pRet float64
	if retention {
		pRet = stats.NormalCDF((math.Log(retElapsedSec) - rc.lnRet) / retSigma)
		if pRet <= 0 {
			retention = false
		}
	}
	// Early exit when every combo cutoff underflowed to zero (doses far
	// below the row's tail regime) and retention is inactive: no cell can
	// flip, so skip the row entirely.
	if !retention && maxP <= 0 {
		return 0, nil
	}

	// Conservative ceiling on any cell's effective flip probability this
	// call: pEff = 1-(1-p)^wf is increasing in both p and wf, so
	// 1-(1-maxP)^maxWF bounds every (combo, word) pair. Nudged up a few
	// ulps so math.Pow rounding can never rank a word's exact pEff above
	// the ceiling used to skip it.
	pEffCeil := 0.0
	if maxP > 0 {
		if maxP >= 1 {
			pEffCeil = 1
		} else {
			pEffCeil = 1 - math.Pow(1-maxP, ca.maxWF)
			for i := 0; i < 4; i++ {
				pEffCeil = math.Nextafter(pEffCeil, 2)
			}
		}
	}

	words := len(victim) >> 3
	flips := 0
	var pEff [16]float64
	var pEffOK [16]bool
	for w := 0; w < words; w++ {
		// Whole-word skips: a word provably holds no hammer flip when its
		// minimum uniform clears the probability ceiling, and no retention
		// flip when it clears pRet. In near-threshold sweeps (HCfirst
		// searches) virtually every word skips, making the row O(words).
		hamW := pEffCeil > 0 && ca.wordMinU[w] < pEffCeil
		retW := retention && pRet > ca.retMinU[w]
		if !hamW && !retW {
			continue
		}
		off := w << 3
		v := binary.LittleEndian.Uint64(victim[off:])
		orient := ca.orient[w]
		// Eligible: only a cell stored in its charged state can lose
		// charge. True cells (orient bit 1) store charge for logical 1.
		elig := ^(v ^ orient)
		if elig == 0 {
			continue
		}
		var oppA, oppB, intra uint64
		if hamW {
			var a, bw uint64
			if above != nil {
				a = binary.LittleEndian.Uint64(above[off:])
			}
			if below != nil {
				bw = binary.LittleEndian.Uint64(below[off:])
			}
			oppA = v ^ a
			oppB = v ^ bw
			// Intra-row neighbours: shifted victim images with row edges
			// patched to the cell's own bit (edge cells have one fewer
			// neighbour) and word edges patched from the adjacent word.
			left := v << 1
			if w > 0 {
				left |= binary.LittleEndian.Uint64(victim[off-8:]) >> 63
			} else {
				left |= v & 1
			}
			right := v >> 1
			if w < words-1 {
				right |= binary.LittleEndian.Uint64(victim[off+8:]) << 63
			} else {
				right |= v & (1 << 63)
			}
			intra = (left ^ v) | (right ^ v)
			pEffOK = [16]bool{}
		}
		wfW := ca.wf[w]
		var maskW uint64
		for e := elig; e != 0; e &= e - 1 {
			k := uint(bits.TrailingZeros64(e))
			flip := false
			if hamW {
				combo := int(((oppA >> k) & 1) | ((oppB>>k)&1)<<1 | ((intra>>k)&1)<<2 | ((orient>>k)&1)<<3)
				if !pEffOK[combo] {
					// Word-vulnerability transform p -> 1-(1-p)^wf preserves
					// small-probability scaling (~p*wf) and saturation.
					switch p := pcrit[combo]; {
					case p <= 0:
						pEff[combo] = 0
					case p >= 1:
						pEff[combo] = 1
					default:
						pEff[combo] = 1 - math.Pow(1-p, wfW)
					}
					pEffOK[combo] = true
				}
				if pe := pEff[combo]; pe > 0 {
					u := (float64(ca.h[w<<6|int(k)]>>11) + 0.5) / (1 << 53)
					flip = u < pe
				}
			}
			if !flip && retW {
				flip = unit(splitmix64(ca.h[w<<6|int(k)]^saltRetention)) < pRet
			}
			if flip {
				maskW |= 1 << k
			}
		}
		if maskW != 0 {
			old := binary.LittleEndian.Uint64(dst[off:])
			flips += bits.OnesCount64(maskW &^ old)
			binary.LittleEndian.PutUint64(dst[off:], old|maskW)
		}
	}
	return flips, nil
}

// flipMaskScalar is the reference per-cell evaluation: one hash, one
// classification and one compare per bit, in index order. It handles any
// buffer length and is the executable specification the word-level fast
// path must match bit-for-bit.
func (m *Model) flipMaskScalar(rc rowCalib, victim, above, below []byte, dose Dose, retElapsedSec float64, dst []byte) (int, error) {
	hammer := dose.Above > 0 || dose.Below > 0
	retention := retElapsedSec > retMinElapsedSec

	// Per-combo flip-probability cutoffs. Combo index bits:
	// bit0 aggressor-above opposite, bit1 aggressor-below opposite,
	// bit2 intra-row neighbour differs, bit3 orientation (1 = true cell).
	var pcrit [16]float64
	if hammer {
		victimByte := byte(0)
		if len(victim) > 0 {
			victimByte = victim[0]
		}
		patJit := lognormal(hashN(rc.rowSeed, saltPatJit, uint64(victimByte)), 0, patJitterSigma)
		aggF := [2]float64{coupleAggrSame, coupleAggrOpp}
		intraF := [2]float64{coupleIntraSame, coupleIntraDiff}
		for combo := 0; combo < 16; combo++ {
			oppA := combo & 1
			oppB := (combo >> 1) & 1
			intra := (combo >> 2) & 1
			orient := (combo >> 3) & 1
			deff := dose.Above*aggF[oppA] + dose.Below*aggF[oppB]
			if deff <= 0 {
				continue
			}
			couple := intraF[intra] * rc.orientC[orient] * patJit
			pcrit[combo] = m.thresholdCDF(rc, math.Log(deff*couple))
		}
	}

	var pRet float64
	if retention {
		pRet = stats.NormalCDF((math.Log(retElapsedSec) - rc.lnRet) / retSigma)
		if pRet <= 0 {
			retention = false
		}
	}
	if !retention && !hammer {
		return 0, nil
	}

	pTrueCut := uint64(rc.pTrue * (1 << 11))
	flips := 0
	n := len(victim)
	// Per-word flip probabilities: pcrit transformed by the mean-one
	// word-vulnerability factor via p -> 1-(1-p)^wf, which preserves both
	// small-probability scaling (~p*wf) and saturation (p=1 stays 1).
	// Cached lazily per (word, combo).
	wordFactor := 1.0
	var pEff [16]float64
	var pEffOK [16]bool
	for i := 0; i < n; i++ {
		if hammer && i%8 == 0 {
			h := hashN(rc.rowSeed, saltWord, uint64(i/8))
			wordFactor = math.Exp(wordClusterSigma*normal(h) - wordClusterSigma*wordClusterSigma/2)
			pEffOK = [16]bool{}
		}
		vb := victim[i]
		ab := byteAt(above, i)
		bb := byteAt(below, i)
		prevB := byteAt(victim, i-1)
		nextB := byteAt(victim, i+1)
		var maskByte byte
		for j := 0; j < 8; j++ {
			bit := (vb >> j) & 1
			h := splitmix64(rc.rowSeed + uint64(i*8+j)*cellStride)
			orient := byte(0)
			if h&0x7FF < pTrueCut {
				orient = 1
			}
			// Eligible: only a cell stored in its charged state can lose
			// charge. True cells (orient=1) store charge for logical 1.
			if bit != orient {
				continue
			}
			flip := false
			if hammer {
				// Intra-row neighbours (handle row edges).
				left := bit
				if i > 0 || j > 0 {
					left = bitAt(vb, prevB, j-1)
				}
				right := bit
				if i < n-1 || j < 7 {
					right = bitAt(vb, nextB, j+1)
				}
				intra := 0
				if left != bit || right != bit {
					intra = 1
				}
				oppA := 0
				if (ab>>j)&1 != bit {
					oppA = 1
				}
				oppB := 0
				if (bb>>j)&1 != bit {
					oppB = 1
				}
				combo := oppA | oppB<<1 | intra<<2 | int(orient)<<3
				if !pEffOK[combo] {
					switch p := pcrit[combo]; {
					case p <= 0:
						pEff[combo] = 0
					case p >= 1:
						pEff[combo] = 1
					default:
						pEff[combo] = 1 - math.Pow(1-p, wordFactor)
					}
					pEffOK[combo] = true
				}
				u := (float64(h>>11) + 0.5) / (1 << 53)
				flip = u < pEff[combo]
			}
			if !flip && retention {
				uRet := unit(splitmix64(h ^ saltRetention))
				flip = uRet < pRet
			}
			if flip {
				maskByte |= 1 << j
			}
		}
		if maskByte != 0 {
			newBits := maskByte &^ dst[i]
			flips += bits.OnesCount8(newBits)
			dst[i] |= maskByte
		}
	}
	return flips, nil
}

// byteAt returns buf[i] or 0 when buf is nil or i out of range (unwritten
// rows read as zero).
func byteAt(buf []byte, i int) byte {
	if buf == nil || i < 0 || i >= len(buf) {
		return 0
	}
	return buf[i]
}

// bitAt returns bit j of cur when 0<=j<8, else the wrapped bit of the
// adjacent byte (j=-1 -> adjacent bit 7; j=8 -> adjacent bit 0).
func bitAt(cur, adjacent byte, j int) byte {
	switch {
	case j < 0:
		return (adjacent >> 7) & 1
	case j > 7:
		return adjacent & 1
	default:
		return (cur >> j) & 1
	}
}
