package disturb

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"hbmrd/internal/stats"
)

// These tests enforce the determinism contract stated in the package doc:
// the per-cell hash stream is the spec, evaluation order is not. The
// word-level kernel in FlipMask must produce byte-identical masks (and
// identical new-flip counts) to the scalar reference (oracle_test.go) for
// every combination of images, doses and retention times — including at
// the weak-cell band levels, after cache eviction, temperature changes,
// and under concurrency.

// prng is a tiny deterministic byte stream for building test images.
type prng struct{ s uint64 }

func (p *prng) next() uint64 { p.s = splitmix64(p.s + 0x9E3779B97F4A7C15); return p.s }

func (p *prng) fill(buf []byte) {
	for i := range buf {
		buf[i] = byte(p.next())
	}
}

func equivImages(kind string, r *prng) []byte {
	buf := make([]byte, RowBytes)
	switch kind {
	case "nil":
		return nil
	case "zero":
	case "ones":
		for i := range buf {
			buf[i] = 0xFF
		}
	case "checkered":
		for i := range buf {
			buf[i] = 0x55
		}
	case "random":
		r.fill(buf)
	}
	return buf
}

func TestFlipMaskMatchesScalar(t *testing.T) {
	r := &prng{s: 0xC0FFEE}
	doses := []Dose{
		{},
		// 1-, 3- and 16-activation doses: the aggressor rows of a
		// double-sided hammer see these at restore, and the row-level
		// bound skips them before any cell state exists.
		{Above: 1},
		{Above: 3, Below: 3},
		{Above: 16, Below: 16},
		{Above: 900},
		{Below: 1200},
		{Above: 8_000, Below: 8_000},
		{Above: 16_000, Below: 48_000},
		{Above: 256 * 1024, Below: 256 * 1024},
		{Above: 3e6, Below: 1e5},
		{Above: 1e12, Below: 1e12},
	}
	rets := []float64{0, 0.010, 0.031, 0.5, 30, 600}
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
		caseIdx := 0
		for _, victimKind := range []string{"checkered", "zero", "ones", "random"} {
			for _, aggrKind := range []string{"nil", "checkered", "random"} {
				victim := equivImages(victimKind, r)
				above := equivImages(aggrKind, r)
				below := equivImages(aggrKind, r)
				for _, dose := range doses {
					for _, ret := range rets {
						caseIdx++
						loc := RowLoc{
							Channel: caseIdx % 8, Pseudo: caseIdx % 2,
							Bank: caseIdx % 16, Row: (caseIdx * 977) % RowsPerBank,
						}
						pre := make([]byte, RowBytes)
						if caseIdx%3 == 0 {
							r.fill(pre) // exercise the OR-into-dst semantics
						}
						dstFast := append([]byte(nil), pre...)
						dstRef := append([]byte(nil), pre...)
						nFast, err := mFast.FlipMask(loc, victim, above, below, dose, ret, dstFast)
						if err != nil {
							t.Fatal(err)
						}
						nRef, err := mRef.flipMaskScalar(mRef.calibRow(loc), victim, above, below, dose, ret, dstRef)
						if err != nil {
							t.Fatal(err)
						}
						if nFast != nRef || !bytes.Equal(dstFast, dstRef) {
							t.Fatalf("chip %d loc %+v victim=%s aggr=%s dose=%+v ret=%v: fast (%d flips) != scalar (%d flips)",
								chip, loc, victimKind, aggrKind, dose, ret, nFast, nRef)
						}
					}
				}
			}
		}

		// A ladder of hammer-only doses straddling each row's skip bound:
		// just below it the fast path returns before building cell state,
		// just above it evaluates every word, and both must agree with the
		// scalar reference.
		for i := 0; i < 24; i++ {
			loc := RowLoc{Channel: i % 8, Pseudo: i % 2, Bank: (i * 5) % 16, Row: 300 + i*613}
			victim := equivImages([]string{"checkered", "zero", "ones", "random"}[i%4], r)
			aggr := equivImages([]string{"checkered", "random"}[i%2], r)
			edge, ok := boundDose(mFast, loc, victim[0])
			if !ok {
				t.Fatalf("chip %d loc %+v: no bound edge to straddle", chip, loc)
			}
			for _, f := range []float64{0.25, 0.9, 0.999, 1 - 1e-9, 1 + 1e-9, 1.001, 1.1, 2, 4, 16} {
				dose := Dose{Above: edge * f, Below: edge * f}
				dstFast := make([]byte, RowBytes)
				dstRef := make([]byte, RowBytes)
				nFast, err := mFast.FlipMask(loc, victim, aggr, aggr, dose, 0, dstFast)
				if err != nil {
					t.Fatal(err)
				}
				nRef, err := mRef.flipMaskScalar(mRef.calibRow(loc), victim, aggr, aggr, dose, 0, dstRef)
				if err != nil {
					t.Fatal(err)
				}
				if nFast != nRef || !bytes.Equal(dstFast, dstRef) {
					t.Fatalf("chip %d loc %+v dose %.6g x bound edge %.6g: fast (%d flips) != scalar (%d flips)",
						chip, loc, f, edge, nFast, nRef)
				}
			}
		}

		// Band edges. For a word of each row, doses whose bound
		// max(1, wf)*maxP + powMargin lands within 1e-9 (relative) on
		// either side of each band level, hammer-only and with retention
		// active; then retention times whose pRet lands on either side of
		// each level, each evaluated on a fresh model where the call
		// itself builds the row's retention bands - on an untouched row,
		// and on one whose hammer bands a dose past the bound already
		// built.
		check := func(m *Model, loc RowLoc, victim, aggr []byte, dose Dose, ret float64) {
			t.Helper()
			dstFast := make([]byte, RowBytes)
			dstRef := make([]byte, RowBytes)
			nFast, err := m.FlipMask(loc, victim, aggr, aggr, dose, ret, dstFast)
			if err != nil {
				t.Fatal(err)
			}
			nRef, err := mRef.flipMaskScalar(mRef.calibRow(loc), victim, aggr, aggr, dose, ret, dstRef)
			if err != nil {
				t.Fatal(err)
			}
			if nFast != nRef || !bytes.Equal(dstFast, dstRef) {
				t.Fatalf("chip %d loc %+v dose %+v ret %v: fast (%d flips) != scalar (%d flips)",
					chip, loc, dose, ret, nFast, nRef)
			}
		}
		for i := 0; i < 6; i++ {
			loc := RowLoc{Channel: (i * 3) % 8, Pseudo: i % 2, Bank: (i*7 + 1) % 16, Row: 1200 + i*2039}
			victim := equivImages([]string{"checkered", "random", "ones", "zero"}[i%4], r)
			aggr := equivImages([]string{"random", "checkered"}[i%2], r)
			rc := mFast.calibRow(loc)
			patJit := patJitter(rc.rowSeed, victim[0])
			for _, w := range []int{0, RowBytes / 16} {
				wfB := math.Max(1, wordFactor(hashN(rc.rowSeed, saltWord, uint64(w))))
				bound := func(d float64) float64 {
					_, maxP := mFast.comboP(&rc, Dose{Above: d, Below: d}, patJit)
					return wfB*maxP + powMargin
				}
				for _, level := range bandLevel {
					lo, hi := straddle(t, bound, level, 1e-3, 1e12)
					for _, d := range []float64{lo, hi} {
						check(mFast, loc, victim, aggr, Dose{Above: d, Below: d}, 0)
						check(mFast, loc, victim, aggr, Dose{Above: d, Below: d}, 0.031)
					}
				}
			}
			pRet := func(sec float64) float64 { return stats.NormalCDF((math.Log(sec) - rc.lnRet) / retSigma) }
			for _, level := range bandLevel {
				lo, hi := straddle(t, pRet, level, retMinElapsedSec*1.01, 1e12)
				for _, sec := range []float64{lo, hi} {
					for _, dose := range []Dose{{}, {Above: 16_000, Below: 16_000}} {
						for _, hammerFirst := range []bool{false, true} {
							fresh, err := NewModel(p)
							if err != nil {
								t.Fatal(err)
							}
							if hammerFirst {
								if _, err := fresh.FlipMask(loc, victim, aggr, aggr, Dose{Above: refHammer, Below: refHammer}, 0, make([]byte, RowBytes)); err != nil {
									t.Fatal(err)
								}
							}
							s, e := fresh.lockEntry(loc)
							built := e.cells != nil && e.cells.ret != nil
							s.mu.Unlock()
							if built {
								t.Fatalf("chip %d loc %+v: retention bands built before the first retention-active call", chip, loc)
							}
							check(fresh, loc, victim, aggr, dose, sec)
						}
					}
				}
			}
		}
	}
}

// straddle bisects an increasing f over [lo, hi] for the point where it
// reaches level, and returns arguments just below and at it whose values
// lie within 1e-9 (relative) of level on either side.
func straddle(t *testing.T, f func(float64) float64, level, lo, hi float64) (below, at float64) {
	t.Helper()
	if f(lo) >= level || f(hi) < level {
		t.Fatalf("level %g not crossed in [%g, %g]", level, lo, hi)
	}
	for i := 0; i < 200 && hi/lo > 1+1e-15; i++ {
		if mid := math.Sqrt(lo * hi); f(mid) >= level {
			hi = mid
		} else {
			lo = mid
		}
	}
	if fl, fh := f(lo), f(hi); fl >= level || fh < level || level/fl-1 > 1e-9 || fh/level-1 > 1e-9 {
		t.Fatalf("level %g: straddle values %.17g and %.17g", level, fl, fh)
	}
	return lo, hi
}

// boundDose returns the symmetric per-side dose at which the row-level
// skip bound stops holding for a victim whose first byte is victimByte:
// belowFlipBound holds at every smaller dose and fails at every larger
// one. ok is false when the bound does not change within (1e-3, 1e9).
func boundDose(m *Model, loc RowLoc, victimByte byte) (edge float64, ok bool) {
	s, e := m.lockEntry(loc)
	defer s.mu.Unlock()
	patJit := patJitter(e.rowSeed, victimByte)
	holds := func(d float64) bool { return m.belowFlipBound(e, Dose{Above: d, Below: d}, patJit) }
	lo, hi := 1e-3, 1e9
	if !holds(lo) || holds(hi) {
		return 0, false
	}
	for hi/lo > 1+1e-12 {
		if mid := math.Sqrt(lo * hi); holds(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// TestFlipMaskMatchesScalarAcrossTempAndAge checks that generation-based
// calibration invalidation (instead of the old full map reset) yields the
// same masks as a freshly built model at the new operating point.
func TestFlipMaskMatchesScalarAcrossTempAndAge(t *testing.T) {
	p, err := BuiltinProfile(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := fillRow(0x55)
	aggr := fillRow(0xAA)
	loc := RowLoc{Channel: 1, Pseudo: 1, Bank: 3, Row: 700}
	dose := Dose{Above: 200_000, Below: 200_000}

	// Touch the row at the initial operating point so the cached
	// calibration is demonstrably stale afterwards.
	warm := make([]byte, RowBytes)
	if _, err := m.FlipMask(loc, victim, aggr, aggr, dose, 0, warm); err != nil {
		t.Fatal(err)
	}

	mutations := []func(*Model){
		func(mm *Model) { mm.SetTempC(85) },
		func(mm *Model) { mm.SetAgeMonths(mm.Profile().AgeMonthsAtStart + 9) },
		func(mm *Model) { mm.SetTempC(p.OperatingTempC) },
	}
	for i, mutate := range mutations {
		mutate(m)
		// The fresh model replays every mutation so far: it must land at
		// the same operating point without ever having cached stale state.
		fresh, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mm := range mutations[:i+1] {
			mm(fresh)
		}
		dstM := make([]byte, RowBytes)
		dstF := make([]byte, RowBytes)
		nM, err := m.FlipMask(loc, victim, aggr, aggr, dose, 40, dstM)
		if err != nil {
			t.Fatal(err)
		}
		nF, err := fresh.flipMaskScalar(fresh.calibRow(loc), victim, aggr, aggr, dose, 40, dstF)
		if err != nil {
			t.Fatal(err)
		}
		if nM != nF || !bytes.Equal(dstM, dstF) {
			t.Fatalf("step %d: cached model (%d flips) != fresh model (%d flips)", i, nM, nF)
		}
	}
}

// TestFlipMaskEvictionIsInvisible shrinks the cell cache far below the
// touched working set and checks masks stay identical to an uncapped
// model: eviction may cost rebuild time, never correctness.
func TestFlipMaskEvictionIsInvisible(t *testing.T) {
	p, err := BuiltinProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	capped.SetCellCacheBytes(0) // floor of cacheMinRowsPerShard rows per shard
	free, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := fillRow(0xAA)
	aggr := fillRow(0x55)
	dose := Dose{Above: 220_000, Below: 220_000}
	// Two interleaved passes over many rows of one bank (same shard) so
	// the capped model must evict and rebuild.
	for pass := 0; pass < 2; pass++ {
		for row := 100; row < 100+40; row++ {
			loc := RowLoc{Channel: 2, Pseudo: 0, Bank: 4, Row: row * 13}
			a := make([]byte, RowBytes)
			b := make([]byte, RowBytes)
			nA, err := capped.FlipMask(loc, victim, aggr, aggr, dose, 0, a)
			if err != nil {
				t.Fatal(err)
			}
			nB, err := free.FlipMask(loc, victim, aggr, aggr, dose, 0, b)
			if err != nil {
				t.Fatal(err)
			}
			if nA != nB || !bytes.Equal(a, b) {
				t.Fatalf("pass %d row %d: capped model diverged from uncapped (%d vs %d flips)", pass, loc.Row, nA, nB)
			}
		}
	}
	// The budget floor must actually bound live arrays.
	for i := range capped.shards {
		s := &capped.shards[i]
		s.mu.Lock()
		if s.liveCount > cacheMinRowsPerShard {
			t.Errorf("shard %d holds %d live rows, want <= %d", i, s.liveCount, cacheMinRowsPerShard)
		}
		s.mu.Unlock()
	}
}

// TestFlipMaskConcurrent drives FlipMask, ColFlipMask and TrialJitter
// from many goroutines over overlapping rows (same bank = same shard, plus
// spread banks), so the lazily built retention and column bands are built
// under contention, and checks every result against a serial reference.
// Run with -race in CI.
func TestFlipMaskConcurrent(t *testing.T) {
	p, err := BuiltinProfile(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := fillRow(0x55)
	aggr := fillRow(0xAA)
	dose := Dose{Above: 180_000, Below: 180_000}

	type job struct {
		loc           RowLoc
		want, colWant []byte
	}
	var jobs []job
	for i := 0; i < 48; i++ {
		loc := RowLoc{Channel: i % 4, Pseudo: 0, Bank: i % 3, Row: 500 + (i%12)*7}
		want := make([]byte, RowBytes)
		if _, err := ref.FlipMask(loc, victim, aggr, aggr, dose, 50, want); err != nil {
			t.Fatal(err)
		}
		colWant := make([]byte, RowBytes)
		if _, err := ref.ColFlipMask(loc, victim, aggr, 1+i%3, 10_000, colWant); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{loc, want, colWant})
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*2)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, j := range jobs {
				// Odd workers take the column call first, so each lazy
				// band set is built by whichever call gets there first.
				got := make([]byte, RowBytes)
				colGot := make([]byte, RowBytes)
				for k := 0; k < 2; k++ {
					var err error
					if (k+w)%2 == 0 {
						_, err = m.FlipMask(j.loc, victim, aggr, aggr, dose, 50, got)
					} else {
						_, err = m.ColFlipMask(j.loc, victim, aggr, 1+i%3, 10_000, colGot)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				if !bytes.Equal(got, j.want) || !bytes.Equal(colGot, j.colWant) {
					errs <- fmt.Errorf("worker %d job %d: concurrent mask differs from serial reference", w, i)
					return
				}
				m.TrialJitter(j.loc, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFlipMaskScalarFallbackLengths pins the shape check of the two
// kernels, which have no scalar fallback: a victim that is not one full
// row of whole 64-bit words, or a neighbour image shorter than the victim,
// is an error that leaves dst untouched - never a panic.
func TestFlipMaskScalarFallbackLengths(t *testing.T) {
	m := newTestModel(t, 0)
	loc := RowLoc{Channel: 0, Pseudo: 0, Bank: 0, Row: 42}
	dose := Dose{Above: 2e5, Below: 2e5}
	untouched := func(dst []byte) bool { return bytes.Count(dst, []byte{0}) == len(dst) }
	for _, n := range []int{0, 5, 64, 1000, RowBytes - 1, RowBytes + 8} {
		victim := bytes.Repeat([]byte{0x55}, n)
		dst := make([]byte, n)
		if _, err := m.FlipMask(loc, victim, nil, nil, dose, 600, dst); err == nil || !untouched(dst) {
			t.Errorf("FlipMask on a %d-byte victim: err %v, dst untouched %v", n, err, untouched(dst))
		}
		if _, err := m.ColFlipMask(loc, victim, nil, 1, 1e6, dst); err == nil || !untouched(dst) {
			t.Errorf("ColFlipMask on a %d-byte victim: err %v, dst untouched %v", n, err, untouched(dst))
		}
	}
	victim := fillRow(0x55)
	short := bytes.Repeat([]byte{0xAA}, 100)
	for _, nb := range [][2][]byte{{short, nil}, {nil, short}, {fillRow(0xAA), short}} {
		dst := make([]byte, RowBytes)
		if _, err := m.FlipMask(loc, victim, nb[0], nb[1], dose, 0, dst); err == nil || !untouched(dst) {
			t.Errorf("short neighbour (%d, %d bytes): err %v, dst untouched %v", len(nb[0]), len(nb[1]), err, untouched(dst))
		}
	}
	dst := make([]byte, RowBytes)
	if _, err := m.ColFlipMask(loc, victim, short, 1, 1e6, dst); err == nil || !untouched(dst) {
		t.Errorf("short aggressor image: err %v, dst untouched %v", err, untouched(dst))
	}
	// An organization whose rows are not whole words rejects its own rows.
	odd, err := NewModelFor(m.Profile(), Org{Channels: 8, RowsPerBank: 1024, RowBytes: 1020})
	if err != nil {
		t.Fatal(err)
	}
	victim = bytes.Repeat([]byte{0x55}, 1020)
	if _, err := odd.FlipMask(loc, victim, nil, nil, dose, 0, make([]byte, 1020)); err == nil {
		t.Error("FlipMask accepted a row of 1020 bytes")
	}
}
