package disturb

import (
	"math"
	"math/bits"

	"hbmrd/internal/stats"
)

// The test oracles: per-cell reference evaluations of FlipMask and
// ColFlipMask, written straight from the per-cell hash stream spec. The
// equivalence tests compare the production kernels against them.

// flipMaskScalar is the reference per-cell evaluation of FlipMask: one
// hash, one classification and one compare per bit, in index order, with
// nothing cached and nothing skipped. It handles any buffer length and is
// the executable specification the word-level kernel must match
// bit-for-bit.
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
			pcrit[combo] = m.thresholdCDF(&rc, math.Log(deff*couple))
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

// colFlipMaskScalar is the per-cell reference evaluation of ColFlipMask:
// one hash, one classification and one compare per bit, in index order,
// with the vulnerability transform 1-(1-p)^wf evaluated for every
// eligible cell.
func (m *Model) colFlipMaskScalar(loc RowLoc, victim, agg []byte, dist, reads int, dst []byte) int {
	if reads <= 0 || dist == 0 {
		return 0
	}
	if dist < 0 {
		dist = -dist
	}
	rc := m.calibRow(loc)
	lnRow := colLnBase + colDistAlpha*math.Log(float64(dist)) + colRowSigma*normal(mix(rc.rowSeed, saltCol))
	lnReads := math.Log(float64(reads))
	oppF := [2]float64{1, colOppCouple}
	pTrueCut := uint64(rc.pTrue * (1 << 11))
	flips := 0
	for i, vb := range victim {
		h := hashN(rc.rowSeed, saltWord, uint64(i/8))
		wf := math.Exp(wordClusterSigma*normal(h) - wordClusterSigma*wordClusterSigma/2)
		var maskByte byte
		for j := 0; j < 8; j++ {
			bit := (vb >> j) & 1
			h := splitmix64(rc.rowSeed + uint64(i*8+j)*cellStride)
			orient := byte(0)
			if h&0x7FF < pTrueCut {
				orient = 1
			}
			if bit != orient {
				continue
			}
			opp := 0
			if (byteAt(agg, i)>>j)&1 != bit {
				opp = 1
			}
			p := stats.NormalCDF((lnReads + math.Log(oppF[opp]*rc.orientC[orient]) - lnRow) / colCellSigma)
			pEff := 1 - math.Pow(1-p, wf)
			if p >= 1 {
				pEff = 1
			}
			if unit(splitmix64(h^saltCol)) < pEff {
				maskByte |= 1 << j
			}
		}
		flips += bits.OnesCount8(maskByte &^ dst[i])
		dst[i] |= maskByte
	}
	return flips
}
