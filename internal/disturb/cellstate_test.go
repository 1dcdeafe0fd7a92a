package disturb

import (
	"math"
	"testing"
)

// TestLowDoseBuildsNoCellState pins when cell state is built. A
// hammer-only FlipMask of at most a few activations - what a double-sided
// hammer's aggressor rows see at restore - is settled by the row-level
// bound: it returns 0 and leaves the row without cell arrays or a minU
// anchor. A retention-active call on the same row still builds them, and
// so does a dose past the bound.
func TestLowDoseBuildsNoCellState(t *testing.T) {
	victim := fillRow(0x55)
	aggr := fillRow(0xAA)
	cellsBuilt := func(m *Model, loc RowLoc) bool {
		s, e := m.lockEntry(loc)
		defer s.mu.Unlock()
		return e.cells != nil || e.haveMinU
	}
	for chip := 0; chip < 6; chip++ {
		m := newTestModel(t, chip)
		for i := 0; i < 16; i++ {
			loc := RowLoc{Channel: i % 8, Pseudo: i % 2, Bank: (i * 3) % 16, Row: 100 + i*1021}
			for _, dose := range []Dose{{Above: 1}, {Below: 2}, {Above: 3, Below: 3}} {
				dst := make([]byte, RowBytes)
				n, err := m.FlipMask(loc, victim, aggr, aggr, dose, 0.010, dst)
				if err != nil {
					t.Fatal(err)
				}
				if n != 0 {
					t.Fatalf("chip %d %+v dose %+v: %d flips", chip, loc, dose, n)
				}
			}
			if cellsBuilt(m, loc) {
				t.Fatalf("chip %d %+v: hammer-only low doses built cell state", chip, loc)
			}
			dst := make([]byte, RowBytes)
			if _, err := m.FlipMask(loc, victim, aggr, aggr, Dose{Above: 3, Below: 3}, 1.0, dst); err != nil {
				t.Fatal(err)
			}
			if !cellsBuilt(m, loc) {
				t.Fatalf("chip %d %+v: retention-active call built no cell state", chip, loc)
			}
		}
		loc := RowLoc{Channel: 2, Pseudo: 1, Bank: 7, Row: 4321}
		edge, ok := boundDose(m, loc, victim[0])
		if !ok {
			t.Fatalf("chip %d %+v: no bound edge", chip, loc)
		}
		dst := make([]byte, RowBytes)
		if _, err := m.FlipMask(loc, victim, aggr, aggr, Dose{Above: 2 * edge, Below: 2 * edge}, 0, dst); err != nil {
			t.Fatal(err)
		}
		if !cellsBuilt(m, loc) {
			t.Fatalf("chip %d %+v: a dose past the bound built no cell state", chip, loc)
		}
	}
}

// TestFlipBoundChain checks the inequality behind belowFlipBound on real
// rows, with full cell state built afterwards: wherever the bound skips a
// dose, max(1, max wf) times the largest per-combo flip probability stays
// under half the row's weakest uniform, so no cell can flip. This is
// stronger than mask equality, which only fails when a skipped cell would
// actually have flipped.
func TestFlipBoundChain(t *testing.T) {
	for _, chip := range []int{0, 2, 5} {
		m := newTestModel(t, chip)
		checked := 0
		for i := 0; i < 48; i++ {
			loc := RowLoc{Channel: i % 8, Pseudo: i % 2, Bank: (i * 7) % 16, Row: 50 + i*331}
			victimByte := byte(i * 37)
			edge, ok := boundDose(m, loc, victimByte)
			if !ok {
				t.Fatalf("chip %d %+v: no bound edge", chip, loc)
			}
			rc := m.calibRow(loc)
			s, e := m.lockEntry(loc)
			maxWF, minU := math.Max(1, e.cells.maxWF), e.minU
			s.mu.Unlock()
			patJit := patJitter(rc.rowSeed, victimByte)
			for _, f := range []float64{0.5, 0.9, 0.999, 1 - 1e-9} {
				d := edge * f
				maxP := 0.0
				for _, aggr := range []float64{coupleAggrSame, coupleAggrOpp} {
					for _, intra := range []float64{coupleIntraSame, coupleIntraDiff} {
						for _, orient := range rc.orientC {
							maxP = math.Max(maxP, m.thresholdCDF(rc, math.Log(2*d*aggr*intra*orient*patJit)))
						}
					}
				}
				if maxWF*maxP >= 0.5*minU*(1+1e-6) {
					t.Fatalf("chip %d %+v dose %.6g (%.9g x edge): max(1,wf)*p = %.3g, half minU = %.3g",
						chip, loc, d, f, maxWF*maxP, 0.5*minU)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no skipped dose checked")
		}
	}
}
