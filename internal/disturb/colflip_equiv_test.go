package disturb

import (
	"bytes"
	"math"
	"testing"
)

// TestColFlipMaskMatchesScalar is ColFlipMask's half of the determinism
// contract: the word-level kernel, which visits only the cells of each
// word's column bands that can flip, produces the masks and new-flip
// counts of the per-cell oracle for every image, distance and read count.
// The second half straddles each band level: for a word of a fresh row,
// it finds the read count at which the word's bound max(1, wf)*maxP +
// powMargin reaches the level, and checks that count and the one below it.
func TestColFlipMaskMatchesScalar(t *testing.T) {
	r := &prng{s: 0xC01D15}
	for _, chip := range []int{0, 5} {
		p, err := BuiltinProfile(chip)
		if err != nil {
			t.Fatal(err)
		}
		mFast, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		mRef, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		check := func(loc RowLoc, victim, agg []byte, dist, reads int, pre []byte) {
			t.Helper()
			dstFast := append([]byte(nil), pre...)
			dstRef := append([]byte(nil), pre...)
			nFast, err := mFast.ColFlipMask(loc, victim, agg, dist, reads, dstFast)
			if err != nil {
				t.Fatal(err)
			}
			nRef := mRef.colFlipMaskScalar(loc, victim, agg, dist, reads, dstRef)
			if nFast != nRef || !bytes.Equal(dstFast, dstRef) {
				t.Fatalf("chip %d loc %+v dist %d reads %d: fast (%d flips) != scalar (%d flips)",
					chip, loc, dist, reads, nFast, nRef)
			}
		}

		caseIdx := 0
		for _, victimKind := range []string{"checkered", "zero", "ones", "random"} {
			for _, aggKind := range []string{"nil", "checkered", "random"} {
				victim := equivImages(victimKind, r)
				agg := equivImages(aggKind, r)
				for _, dist := range []int{1, -3, 8, 16} {
					for _, reads := range []int{0, 1, 500, 3_000, 10_000, 80_000, 1_000_000, 100_000_000} {
						caseIdx++
						loc := RowLoc{
							Channel: caseIdx % 8, Pseudo: caseIdx % 2,
							Bank: caseIdx % 16, Row: (caseIdx * 613) % RowsPerBank,
						}
						pre := make([]byte, RowBytes)
						if caseIdx%3 == 0 {
							r.fill(pre) // exercise the OR-into-dst semantics
						}
						check(loc, victim, agg, dist, reads, pre)
					}
				}
			}
		}

		for i := 0; i < 8; i++ {
			loc := RowLoc{Channel: (i * 3) % 8, Pseudo: i % 2, Bank: (i*5 + 2) % 16, Row: 700 + i*1901}
			victim := equivImages([]string{"checkered", "zero", "ones", "random"}[i%4], r)
			agg := equivImages([]string{"nil", "random"}[i%2], r)
			dist := []int{1, -2, 5, 12}[i%4]
			rc := mFast.calibRow(loc)
			for _, w := range []int{0, RowBytes/8 - 1} {
				wfB := math.Max(1, wordFactor(hashN(rc.rowSeed, saltWord, uint64(w))))
				bound := func(reads int) float64 {
					_, maxP := colP(&rc, dist, reads)
					return wfB*maxP + powMargin
				}
				for _, level := range bandLevel {
					// The smallest read count whose bound reaches the level.
					lo, hi := 1, 1<<40
					if bound(lo) >= level || bound(hi) < level {
						t.Fatalf("chip %d loc %+v word %d: level %g not crossed in [%d, %d]", chip, loc, w, level, lo, hi)
					}
					for hi-lo > 1 {
						if mid := lo + (hi-lo)/2; bound(mid) >= level {
							hi = mid
						} else {
							lo = mid
						}
					}
					if bandsFor(bound(lo)) == bandsFor(bound(hi)) {
						t.Fatalf("chip %d loc %+v word %d: reads %d and %d do not straddle level %g", chip, loc, w, lo, hi, level)
					}
					check(loc, victim, agg, dist, lo, make([]byte, RowBytes))
					check(loc, victim, agg, dist, hi, make([]byte, RowBytes))
				}
			}
		}
	}
}
