package disturb

import (
	"encoding/binary"
	"math"
	"math/bits"

	"hbmrd/internal/stats"
)

// Column-disturb model (ColumnDisturb, arXiv 2510.14750): read disturbance
// propagates along bitlines, not just wordlines. Keeping a row open while
// streaming column reads through it stresses every cell that shares the
// aggressor's bitlines inside the same subarray, and with enough reads the
// weakest of those cells lose charge - a disturbance mechanism orthogonal
// to row hammer (no repeated activations) and to RowPress (the victims are
// arbitrarily many rows away, not physical neighbours).
//
// The model mirrors the row-hammer threshold machinery in ln-dose space,
// with column reads as the dose: a victim row at |distance| rows from the
// open aggressor has a per-row median ln read threshold that grows with
// ln(distance) (bitline attenuation), each cell draws its threshold
// quantile from the same per-cell hash stream FlipMask uses (decorrelated
// through saltCol), and the effective reads are boosted when the
// aggressor's cell on the same bitline stores the opposite bit (the
// paper's data-pattern dependence). Only cells stored in their charged
// state can flip, reusing the orientation bitmask, and the per-word
// cluster factors give columns the same spatial texture hammer flips have.
//
// Determinism contract: like FlipMask, the flip decision of every cell is
// a fixed function of the per-cell hash stream and the documented salts;
// evaluation order is unspecified.

const (
	// colLnBase is the ln of the median per-cell column-read threshold at
	// distance 1 (~80k reads), before row jitter and per-cell spread.
	colLnBase = 11.29
	// colDistAlpha grows the threshold with ln(distance): bitline stress
	// attenuates as the victim sits further from the open aggressor.
	colDistAlpha = 0.7
	// colRowSigma is the row-to-row lognormal jitter of the threshold.
	colRowSigma = 0.3
	// colCellSigma is the per-cell threshold spread in ln space. With
	// ~8k cells per row the weakest cell sits ~3.6 sigma below the
	// median, so first disturbances appear well before the median reads.
	colCellSigma = 0.9
	// colOppCouple multiplies the effective reads when the aggressor's
	// cell on the same bitline stores the opposite bit.
	colOppCouple = 2.2
)

// ColFlipMask evaluates which bits of a victim row flip after `reads`
// column reads through an open aggressor row `dist` rows away (signed;
// only |dist| matters). victim is the row's stored image, one full row of
// whole 64-bit words; agg is the aggressor's image at the time of the
// reads (nil means never written, treated as all-zero), and a non-nil one
// must cover the victim. The flip mask is OR-ed into dst (len(victim)
// bytes) and the number of newly set mask bits is returned.
//
// The caller (internal/hbm) gates on subarray membership and blast
// radius; the model only prices the coupling.
func (m *Model) ColFlipMask(loc RowLoc, victim, agg []byte, dist, reads int, dst []byte) (int, error) {
	if err := m.checkRow(victim, dst, agg, nil); err != nil {
		return 0, err
	}
	if reads <= 0 || dist == 0 {
		return 0, nil
	}
	rc, ca, col, rowWFB := m.prepareRow(loc)
	pcrit, maxP := colP(rc, dist, reads)
	if maxP <= 0 {
		return 0, nil
	}

	// As in FlipMask: a cell flips only if its column uniform is below
	// 1-(1-p)^wf <= max(1,wf)*p, so a word's flips all sit in the column
	// bands under the first level above its bound (bandSet.cands), at most
	// the first nRow.
	nRow := bandsFor(wordBound(rowWFB, maxP))
	words := len(victim) >> 3
	flips := 0
	var pEff [4]float64
	var pEffOK [4]bool
	for w := 0; w < words; w++ {
		c := col.cands(w, nRow, ca.wf[w], maxP)
		if c == 0 {
			continue
		}
		off := w << 3
		v := binary.LittleEndian.Uint64(victim[off:])
		orient := ca.orient[w]
		// Eligible: only a cell stored in its charged state can lose charge.
		if c &= ^(v ^ orient); c == 0 {
			continue
		}
		var a uint64
		if agg != nil {
			a = binary.LittleEndian.Uint64(agg[off:])
		}
		opp := v ^ a
		wfW := ca.wf[w]
		wfB := math.Max(1, wfW)
		pEffOK = [4]bool{}
		var maskW uint64
		for ; c != 0; c &= c - 1 {
			k := uint(bits.TrailingZeros64(c))
			combo := int(((opp >> k) & 1) | ((orient>>k)&1)<<1)
			// saltCol decorrelates the column draw from the hammer
			// threshold uniform (h>>11) and the retention draw
			// (h^saltRetention) of the same cell.
			uc := unit(splitmix64(splitmix64(rc.rowSeed+uint64(w<<6|int(k))*cellStride) ^ saltCol))
			if p := pcrit[combo]; uc < wordBound(wfB, p) {
				if !pEffOK[combo] {
					pEff[combo], pEffOK[combo] = effP(p, wfW), true
				}
				if uc < pEff[combo] {
					maskW |= 1 << k
				}
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

// colP returns the flip-probability cutoff per coupling combo of `reads`
// column reads at row distance dist (non-zero), and their maximum. Combo
// index bits: bit0 aggressor bitline cell opposite, bit1 orientation
// (1 = true cell).
func colP(rc *rowCalib, dist, reads int) (pcrit [4]float64, maxP float64) {
	if dist < 0 {
		dist = -dist
	}
	lnRow := colLnBase + colDistAlpha*math.Log(float64(dist)) + colRowSigma*normal(mix(rc.rowSeed, saltCol))
	lnReads := math.Log(float64(reads))
	oppF := [2]float64{1, colOppCouple}
	for combo := 0; combo < 4; combo++ {
		couple := oppF[combo&1] * rc.orientC[(combo>>1)&1]
		p := stats.NormalCDF((lnReads + math.Log(couple) - lnRow) / colCellSigma)
		pcrit[combo] = p
		if p > maxP {
			maxP = p
		}
	}
	return pcrit, maxP
}
