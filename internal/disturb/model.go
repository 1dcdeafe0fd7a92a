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
	// per-cell state (orientation, word factors, weak-cell bands) never
	// depends on temperature or age and survives generation bumps.
	gen uint64

	// Per-bank sharded row cache (see cellstate.go): calibration plus the
	// per-cell arrays behind cacheBudget bytes of LRU, split among the
	// shards that currently hold live arrays.
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
	rc := *m.ensureCalibLocked(s, e)
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
func (m *Model) thresholdCDF(rc *rowCalib, lnDc float64) float64 {
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
// victim is the row's stored image, one full row of whole 64-bit words;
// above and below are the current images of the physically adjacent rows
// (nil means never written, treated as all-zero), and a non-nil one must
// cover the victim. The flip mask is OR-ed into dst (which must have
// len(victim) bytes) and the number of newly set mask bits is returned.
//
// Determinism contract: the flip decision of every cell is a fixed
// function of the per-cell hash stream (see cellstate.go); evaluation
// order is unspecified. The word-level kernel below visits only the cells
// of each word's weak-cell bands that can flip; TestFlipMaskMatchesScalar
// checks its masks byte for byte against a per-cell reference sweep that
// lives in test code, and the repo-level golden digests pin them.
func (m *Model) FlipMask(loc RowLoc, victim, above, below []byte, dose Dose, retElapsedSec float64, dst []byte) (int, error) {
	if err := m.checkRow(victim, dst, above, below); err != nil {
		return 0, err
	}
	hammer := dose.Above > 0 || dose.Below > 0
	retention := retElapsedSec > retMinElapsedSec
	if !hammer && !retention {
		return 0, nil
	}
	rc, ca, ret, patJit, rowWFB, skip := m.prepareFlip(loc, victim[0], dose, hammer, retention)
	if skip {
		return 0, nil
	}

	var pcrit [16]float64
	maxP := 0.0
	if hammer {
		pcrit, maxP = m.comboP(rc, dose, patJit)
	}
	// A retention flip needs the cell's retention uniform below pRet, so
	// only the nRet retention bands under the first level above pRet can
	// hold one (nRet is 0 when retention is inactive).
	var pRet float64
	nRet := 0
	if retention {
		if pRet = stats.NormalCDF((math.Log(retElapsedSec) - rc.lnRet) / retSigma); pRet > 0 {
			nRet = bandsFor(pRet)
		}
	}
	// A cell flips under hammer only if u < 1-(1-p)^wf <= max(1,wf)*p, so
	// every hammer flip of a word sits in the bands under the first level
	// above the word's bound (bandSet.cands): the first nHam bands for the
	// row's largest word factor, fewer for most words.
	nHam := 0
	if maxP > 0 {
		nHam = bandsFor(wordBound(rowWFB, maxP))
	}
	if nRet == 0 && nHam == 0 {
		return 0, nil
	}

	words := len(victim) >> 3
	flips := 0
	var pEff [16]float64
	var pEffOK [16]bool
	for w := 0; w < words; w++ {
		var hamC, retC uint64
		if nHam > 0 {
			hamC = ca.ham.cands(w, nHam, ca.wf[w], maxP)
		}
		if nRet > 0 {
			retC = ret.below(w, nRet)
		}
		if hamC|retC == 0 {
			continue
		}
		off := w << 3
		v := binary.LittleEndian.Uint64(victim[off:])
		orient := ca.orient[w]
		// Eligible: only a cell stored in its charged state can lose
		// charge. True cells (orient bit 1) store charge for logical 1.
		elig := ^(v ^ orient)
		hamC &= elig
		retC &= elig
		if hamC|retC == 0 {
			continue
		}
		var oppA, oppB, intra uint64
		if hamC != 0 {
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
		wfB := math.Max(1, wfW)
		var maskW uint64
		for c := hamC | retC; c != 0; c &= c - 1 {
			k := uint(bits.TrailingZeros64(c))
			h := splitmix64(rc.rowSeed + uint64(w<<6|int(k))*cellStride)
			flip := false
			if hamC>>k&1 != 0 {
				combo := int(((oppA >> k) & 1) | ((oppB>>k)&1)<<1 | ((intra>>k)&1)<<2 | ((orient>>k)&1)<<3)
				u := (float64(h>>11) + 0.5) / (1 << 53)
				// The exact pEff (and its math.Pow) is needed only when u
				// is under the combo's bound.
				if p := pcrit[combo]; u < wordBound(wfB, p) {
					if !pEffOK[combo] {
						pEff[combo], pEffOK[combo] = effP(p, wfW), true
					}
					flip = u < pEff[combo]
				}
			}
			if !flip && retC>>k&1 != 0 {
				flip = unit(splitmix64(h^saltRetention)) < pRet
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

// comboP returns a hammer dose's flip-probability cutoff per coupling
// combo, and their maximum. Combo index bits: bit0 aggressor-above
// opposite, bit1 aggressor-below opposite, bit2 intra-row neighbour
// differs, bit3 orientation (1 = true cell).
func (m *Model) comboP(rc *rowCalib, dose Dose, patJit float64) (pcrit [16]float64, maxP float64) {
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
	return pcrit, maxP
}

// effP is the word-vulnerability transform p -> 1-(1-p)^wf, which keeps
// small-probability scaling (~p*wf) and saturation (p=1 stays 1). It never
// exceeds max(1, wf)*p + powMargin (TestEffPBound).
func effP(p, wf float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	return 1 - math.Pow(1-p, wf)
}

// checkRow validates the images FlipMask and ColFlipMask take: victim and
// dst are one full row of whole 64-bit words, and each non-nil neighbour
// image covers the victim.
func (m *Model) checkRow(victim, dst, nbr1, nbr2 []byte) error {
	if len(dst) != len(victim) {
		return fmt.Errorf("disturb: dst length %d != victim length %d", len(dst), len(victim))
	}
	if len(victim) != m.org.RowBytes || m.rowBits&63 != 0 {
		return fmt.Errorf("disturb: want a full %d-byte row of 64-bit words, got %d bytes", m.org.RowBytes, len(victim))
	}
	for _, n := range [2][]byte{nbr1, nbr2} {
		if n != nil && len(n) < len(victim) {
			return fmt.Errorf("disturb: neighbour image %d bytes, victim %d", len(n), len(victim))
		}
	}
	return nil
}
