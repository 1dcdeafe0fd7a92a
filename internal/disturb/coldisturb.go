package disturb

import (
	"encoding/binary"
	"fmt"
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
// only |dist| matters). victim is the row's stored image; agg is the
// aggressor's image at the time of the reads (nil means never written,
// treated as all-zero). The flip mask is OR-ed into dst (len(victim)
// bytes) and the number of newly set mask bits is returned.
//
// The caller (internal/hbm) gates on subarray membership and blast
// radius; the model only prices the coupling.
func (m *Model) ColFlipMask(loc RowLoc, victim, agg []byte, dist, reads int, dst []byte) (int, error) {
	if len(dst) != len(victim) {
		return 0, fmt.Errorf("disturb: dst length %d != victim length %d", len(dst), len(victim))
	}
	if len(victim) != m.org.RowBytes || m.rowBits&63 != 0 {
		return 0, fmt.Errorf("disturb: column disturb wants a full %d-byte row, got %d bytes", m.org.RowBytes, len(victim))
	}
	if agg != nil && len(agg) < len(victim) {
		return 0, fmt.Errorf("disturb: aggressor image %d bytes, victim %d", len(agg), len(victim))
	}
	if reads <= 0 || dist == 0 {
		return 0, nil
	}
	if dist < 0 {
		dist = -dist
	}

	rc, ca := m.prepareRow(loc)
	lnRow := colLnBase + colDistAlpha*math.Log(float64(dist)) + colRowSigma*normal(mix(rc.rowSeed, saltCol))
	lnReads := math.Log(float64(reads))

	// Per-combo flip-probability cutoffs. Combo index bits:
	// bit0 aggressor bitline cell opposite, bit1 orientation (1 = true cell).
	oppF := [2]float64{1, colOppCouple}
	var pcrit [4]float64
	maxP := 0.0
	for combo := 0; combo < 4; combo++ {
		couple := oppF[combo&1] * rc.orientC[(combo>>1)&1]
		p := stats.NormalCDF((lnReads + math.Log(couple) - lnRow) / colCellSigma)
		pcrit[combo] = p
		if p > maxP {
			maxP = p
		}
	}
	if maxP <= 0 {
		return 0, nil
	}
	// Conservative per-word ceiling, mirroring FlipMask's word skip: the
	// vulnerability transform p -> 1-(1-p)^wf is increasing in both terms.
	pEffCeil := 1.0
	if maxP < 1 {
		pEffCeil = 1 - math.Pow(1-maxP, ca.maxWF)
		for i := 0; i < 4; i++ {
			pEffCeil = math.Nextafter(pEffCeil, 2)
		}
	}
	if pEffCeil <= 0 {
		return 0, nil
	}

	words := len(victim) >> 3
	flips := 0
	var pEff [4]float64
	var pEffOK [4]bool
	for w := 0; w < words; w++ {
		off := w << 3
		v := binary.LittleEndian.Uint64(victim[off:])
		orient := ca.orient[w]
		// Eligible: only a cell stored in its charged state can lose charge.
		elig := ^(v ^ orient)
		if elig == 0 {
			continue
		}
		var a uint64
		if agg != nil {
			a = binary.LittleEndian.Uint64(agg[off:])
		}
		opp := v ^ a
		wfW := ca.wf[w]
		pEffOK = [4]bool{}
		var maskW uint64
		for e := elig; e != 0; e &= e - 1 {
			k := uint(bits.TrailingZeros64(e))
			combo := int(((opp >> k) & 1) | ((orient>>k)&1)<<1)
			if !pEffOK[combo] {
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
				// saltCol decorrelates the column draw from the hammer
				// threshold uniform (h>>11) and the retention draw
				// (h^saltRetention) of the same cell.
				if unit(splitmix64(ca.h[w<<6|int(k)]^saltCol)) < pe {
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
