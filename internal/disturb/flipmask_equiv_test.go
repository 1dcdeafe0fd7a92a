package disturb

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

// These tests enforce the determinism contract stated in the package doc:
// the per-cell hash stream is the spec, evaluation order is not. The
// word-level fast path in FlipMask must produce byte-identical masks (and
// identical new-flip counts) to the scalar reference for every
// combination of images, doses and retention times — including after
// cache eviction, temperature changes, and under concurrency.

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
	}
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

// TestFlipMaskConcurrent drives FlipMask and TrialJitter from many
// goroutines over overlapping rows (same bank = same shard, plus spread
// banks) and checks every result against a serial reference. Run with
// -race in CI.
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
		loc  RowLoc
		want []byte
	}
	var jobs []job
	for i := 0; i < 48; i++ {
		loc := RowLoc{Channel: i % 4, Pseudo: 0, Bank: i % 3, Row: 500 + (i%12)*7}
		want := make([]byte, RowBytes)
		if _, err := ref.FlipMask(loc, victim, aggr, aggr, dose, 50, want); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{loc, want})
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*2)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, j := range jobs {
				got := make([]byte, RowBytes)
				if _, err := m.FlipMask(j.loc, victim, aggr, aggr, dose, 50, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, j.want) {
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

// TestFlipMaskScalarFallbackLengths covers the non-word-aligned entry
// conditions (short rows, short neighbour images) that route through the
// scalar path.
func TestFlipMaskScalarFallbackLengths(t *testing.T) {
	m := newTestModel(t, 0)
	loc := RowLoc{Channel: 0, Pseudo: 0, Bank: 0, Row: 42}
	for _, n := range []int{0, 5, 64, 1000} {
		victim := make([]byte, n)
		for i := range victim {
			victim[i] = 0x55
		}
		dst := make([]byte, n)
		if _, err := m.FlipMask(loc, victim, nil, nil, Dose{Above: 1e5, Below: 1e5}, 0, dst); err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
	}
	// Short neighbour image: must not panic, must match a scalar run.
	victim := fillRow(0x55)
	short := make([]byte, 100)
	for i := range short {
		short[i] = 0xAA
	}
	dFast := make([]byte, RowBytes)
	dRef := make([]byte, RowBytes)
	if _, err := m.FlipMask(loc, victim, short, nil, Dose{Above: 2e5, Below: 2e5}, 0, dFast); err != nil {
		t.Fatal(err)
	}
	ref := newTestModel(t, 0)
	if _, err := ref.flipMaskScalar(ref.calibRow(loc), victim, short, nil, Dose{Above: 2e5, Below: 2e5}, 0, dRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dFast, dRef) {
		t.Fatal("short-neighbour call diverged from scalar reference")
	}
}
