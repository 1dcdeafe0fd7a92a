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
// actually have flipped. max wf is read from the built per-word factors,
// not from the bound's own maxWordFactor.
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
			maxWF, minU := 1.0, e.minU
			for _, wf := range m.ensureCellsLocked(s, e).wf {
				maxWF = math.Max(maxWF, wf)
			}
			s.mu.Unlock()
			patJit := patJitter(rc.rowSeed, victimByte)
			for _, f := range []float64{0.5, 0.9, 0.999, 1 - 1e-9} {
				d := edge * f
				maxP := 0.0
				for _, aggr := range []float64{coupleAggrSame, coupleAggrOpp} {
					for _, intra := range []float64{coupleIntraSame, coupleIntraDiff} {
						for _, orient := range rc.orientC {
							maxP = math.Max(maxP, m.thresholdCDF(&rc, math.Log(2*d*aggr*intra*orient*patJit)))
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

// testOrgs are the organizations of the HBM2_8Gb, HBM2E_16Gb and
// HBM3_16Gb presets.
var testOrgs = []Org{
	DefaultOrg(),
	{Channels: 8, Ranks: 1, RowsPerBank: 32768, RowBytes: 1024},
	{Channels: 16, Ranks: 1, RowsPerBank: 16384, RowBytes: 512},
}

// TestBoundWordFactor checks the word factor both skip bounds and the
// kernels' band prefilter read (boundWFLocked, from the row's largest word
// hash, before any cell state exists) against the built per-word factors:
// it must equal max(1, max wf) of every sampled row, on every preset
// organization. A smaller value would let the bounds skip flips.
func TestBoundWordFactor(t *testing.T) {
	for oi, org := range testOrgs {
		for chip := 0; chip < 6; chip += 2 {
			p, err := BuiltinProfile(chip)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModelFor(p, org)
			if err != nil {
				t.Fatal(err)
			}
			above := 0
			for i := 0; i < 64; i++ {
				loc := RowLoc{Channel: (i * 5) % org.Channels, Pseudo: i % 2, Bank: (i * 3) % 16, Row: (i*2053 + 11) % org.RowsPerBank}
				s, e := m.lockEntry(loc)
				bound := m.boundWFLocked(e)
				want := 1.0
				for _, wf := range m.ensureCellsLocked(s, e).wf {
					want = math.Max(want, wf)
				}
				s.mu.Unlock()
				if bound != want {
					t.Fatalf("org %d chip %d %+v: bound word factor %.17g, built max(1, max wf) %.17g", oi, chip, loc, bound, want)
				}
				if want > 1 {
					above++
				}
			}
			if above == 0 {
				t.Fatalf("org %d chip %d: no sampled row has a word factor above 1", oi, chip)
			}
		}
	}
}

// TestWeakCellBands checks the invariant every band skip rests on. The
// band of a draw follows its bit length, so it is checked first at each
// level's exact boundary draws; then, for sampled rows on the three preset
// organizations, every cell of the hammer, retention and column bands sits
// in exactly one band, and band i holds only uniforms in
// [bandLevel[i-1], bandLevel[i]).
func TestWeakCellBands(t *testing.T) {
	uOf := func(x uint64) float64 { return (float64(x) + 0.5) / (1 << 53) }
	for i, level := range bandLevel {
		x := uint64(level * (1 << 53)) // the first draw whose uniform reaches the level
		if uOf(x-1) >= level || uOf(x) < level {
			t.Fatalf("level %g: draws %d and %d do not straddle it", level, x-1, x)
		}
		if bandOf(x-1) != i || bandOf(x) != i+1 {
			t.Errorf("level %g: bandOf(%d) = %d, bandOf(%d) = %d, want %d and %d", level, x-1, bandOf(x-1), x, bandOf(x), i, i+1)
		}
	}
	if bandOf(0) != 0 || bandOf(1<<53-1) != numBands-1 {
		t.Errorf("bandOf(0) = %d, bandOf(2^53-1) = %d", bandOf(0), bandOf(1<<53-1))
	}

	for oi, org := range testOrgs {
		p, err := BuiltinProfile(oi * 2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModelFor(p, org)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			loc := RowLoc{Channel: (i * 5) % org.Channels, Pseudo: i % 2, Bank: (i * 3) % 16, Row: (i*4099 + 17) % org.RowsPerBank}
			s, e := m.lockEntry(loc)
			ca := m.ensureCellsLocked(s, e)
			sets := []struct {
				name string
				bs   bandSet
				u    func(h uint64) float64
			}{
				{"hammer", ca.ham, func(h uint64) float64 { return uOf(h >> 11) }},
				{"retention", m.ensureBandsLocked(s, e, ca, &ca.ret, saltRetention), func(h uint64) float64 { return unit(splitmix64(h ^ saltRetention)) }},
				{"column", m.ensureBandsLocked(s, e, ca, &ca.col, saltCol), func(h uint64) float64 { return unit(splitmix64(h ^ saltCol)) }},
			}
			s.mu.Unlock()
			for _, set := range sets {
				if len(set.bs) != m.rowBits/64*numBands {
					t.Fatalf("%s bands: %d masks for %d cells", set.name, len(set.bs), m.rowBits)
				}
				for idx := 0; idx < m.rowBits; idx++ {
					w, k := idx>>6, uint(idx)&63
					band := -1
					for b := 0; b < numBands; b++ {
						if set.bs[b*m.rowBits/64+w]>>k&1 == 0 {
							continue
						}
						if band >= 0 {
							t.Fatalf("org %d %+v cell %d: in %s bands %d and %d", oi, loc, idx, set.name, band, b)
						}
						band = b
					}
					if band < 0 {
						t.Fatalf("org %d %+v cell %d: in no %s band", oi, loc, idx, set.name)
					}
					lo, hi := 0.0, 1.0
					if band > 0 {
						lo = bandLevel[band-1]
					}
					if band < numBands-1 {
						hi = bandLevel[band]
					}
					if u := set.u(splitmix64(e.rowSeed + uint64(idx)*cellStride)); u < lo || u >= hi {
						t.Fatalf("org %d %+v cell %d: %s uniform %g in band %d [%g, %g)", oi, loc, idx, set.name, u, band, lo, hi)
					}
				}
			}
		}
	}
}

// TestEffPBound checks, as computed, the inequality behind the kernels'
// band choice and their per-cell Pow gate: effP(p, wf) = 1-(1-p)^wf never
// exceeds wordBound(max(1, wf), p) = max(1, wf)*p + powMargin, for p
// across (0, 1) and wf across the whole range wordFactor can produce.
func TestEffPBound(t *testing.T) {
	r := &prng{s: 0xB0B}
	wfs := []float64{wordFactor(0), wordFactor(math.MaxUint64), 1, math.Nextafter(1, 0), math.Nextafter(1, 2)}
	lnLo, lnHi := math.Log(wfs[0]), math.Log(wfs[1])
	for i := 0; i < 60; i++ {
		wfs = append(wfs, math.Exp(lnLo+(lnHi-lnLo)*unit(r.next())), wordFactor(r.next()))
	}
	ps := []float64{math.SmallestNonzeroFloat64, 1e-300, math.Nextafter(1, 0)}
	for e := -1074; e < 0; e += 3 {
		ps = append(ps, math.Ldexp(1+unit(r.next()), e))
	}
	for k := 1; k <= 53; k++ {
		ps = append(ps, 1-math.Ldexp(1, -k))
	}
	for i := 0; i < 4000; i++ {
		ps = append(ps, unit(r.next()), math.Exp(-40*unit(r.next())))
	}
	for _, wf := range wfs {
		for _, p := range ps {
			if got, bound := effP(p, wf), wordBound(math.Max(1, wf), p); got > bound {
				t.Fatalf("effP(%.17g, %.17g) = %.17g > max(1, wf)*p + powMargin = %.17g", p, wf, got, bound)
			}
		}
	}
}
