package disturb

import (
	"testing"
)

// Benchmarks for the fault-model hot path. Every experiment in the study
// funnels through FlipMask (one call per activation of a disturbed or
// stale row) and calibRow (once per touched row), so these two kernels
// bound the throughput of paper-scale sweeps. `make bench` records their
// trajectory in BENCH_<date>.json.

func benchFlipModel(b *testing.B) *Model {
	b.Helper()
	p, err := BuiltinProfile(0)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewModel(p)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchFillRow(fill byte) []byte {
	buf := make([]byte, RowBytes)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// BenchmarkFlipMaskHot measures FlipMask in the regime the experiment
// runners exercise it: a warmed row (HCfirst searches re-hammer the same
// victim dozens of times) under a checkered pattern. The sub-benchmarks
// cover the two doses that dominate real sweeps: searchDose sits near the
// HCfirst threshold (almost no flips, the common case inside a binary
// search) and refDose is the paper's 256K-hammer BER measurement point
// (plenty of flips).
func BenchmarkFlipMaskHot(b *testing.B) {
	for _, bc := range []struct {
		name string
		dose float64
	}{
		{"searchDose16K", 16 * 1024},
		{"refDose256K", 256 * 1024},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := benchFlipModel(b)
			victim := benchFillRow(0x55)
			aggr := benchFillRow(0xAA)
			dst := make([]byte, RowBytes)
			locs := [4]RowLoc{
				{Channel: 0, Pseudo: 0, Bank: 0, Row: 1000},
				{Channel: 0, Pseudo: 0, Bank: 0, Row: 1002},
				{Channel: 3, Pseudo: 1, Bank: 5, Row: 4000},
				{Channel: 3, Pseudo: 1, Bank: 5, Row: 4002},
			}
			dose := Dose{Above: bc.dose, Below: bc.dose}
			// Warm the per-row state so the loop measures the steady-state
			// kernel, not first-touch calibration.
			for _, loc := range locs {
				if _, err := m.FlipMask(loc, victim, aggr, aggr, dose, 0, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = 0
				}
				n, err := m.FlipMask(locs[i&3], victim, aggr, aggr, dose, 0, dst)
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
			b.ReportMetric(float64(total)/float64(b.N), "flips/op")
		})
	}
}

// BenchmarkFlipMaskRetention measures the retention-only evaluation path
// (no hammer dose, a stale row past the guaranteed window).
func BenchmarkFlipMaskRetention(b *testing.B) {
	m := benchFlipModel(b)
	victim := benchFillRow(0x55)
	dst := make([]byte, RowBytes)
	loc := RowLoc{Channel: 0, Pseudo: 0, Bank: 0, Row: 2000}
	if _, err := m.FlipMask(loc, victim, nil, nil, Dose{}, 1.0, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = 0
		}
		if _, err := m.FlipMask(loc, victim, nil, nil, Dose{}, 1.0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlipMaskFirstTouch measures FlipMask on a row it has never
// seen: each iteration targets a fresh row. tinyDose3 is what a
// double-sided hammer's aggressor rows carry at restore (the row-level
// bound settles it without building cell state); searchDose16K is a
// victim's first evaluation inside an HCfirst search, which pays the full
// cell-state build.
func BenchmarkFlipMaskFirstTouch(b *testing.B) {
	for _, bc := range []struct {
		name string
		dose float64
	}{
		{"tinyDose3", 3},
		{"searchDose16K", 16 * 1024},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := benchFlipModel(b)
			victim := benchFillRow(0x55)
			aggr := benchFillRow(0xAA)
			dst := make([]byte, RowBytes)
			dose := Dose{Above: bc.dose, Below: bc.dose}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loc := RowLoc{Channel: i & 7, Pseudo: (i >> 3) & 1, Bank: (i >> 4) & 15, Row: (i >> 8) % RowsPerBank}
				if _, err := m.FlipMask(loc, victim, aggr, aggr, dose, 0, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCalibFirstTouch measures the per-row calibration cost paid on
// the first activation of every row an experiment touches.
func BenchmarkCalibFirstTouch(b *testing.B) {
	m := benchFlipModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.calibRow(RowLoc{Channel: i & 7, Pseudo: 0, Bank: (i >> 3) & 15, Row: (i >> 7) % RowsPerBank})
	}
}

// BenchmarkTrialJitter measures the per-epoch dose-jitter draw the device
// issues at the first dose a row takes after each restore.
func BenchmarkTrialJitter(b *testing.B) {
	m := benchFlipModel(b)
	loc := RowLoc{Channel: 2, Pseudo: 1, Bank: 7, Row: 1234}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrialJitter(loc, uint64(i))
	}
}

// BenchmarkColFlipMask measures the column-disturb kernel at the coldist
// sweep's flip-measurement point (10,000 reads at distance 1, opposite
// aggressor data). warmRow re-evaluates rows whose cell state and column
// bands are built; firstTouch targets a never-seen row per iteration and
// pays both builds.
func BenchmarkColFlipMask(b *testing.B) {
	for _, warm := range []bool{true, false} {
		name := "warmRow"
		if !warm {
			name = "firstTouch"
		}
		b.Run(name, func(b *testing.B) {
			m := benchFlipModel(b)
			victim := benchFillRow(0x55)
			agg := benchFillRow(0xAA)
			dst := make([]byte, RowBytes)
			loc := func(i int) RowLoc {
				if warm {
					i &= 3
				}
				return RowLoc{Channel: i & 7, Pseudo: (i >> 3) & 1, Bank: (i >> 4) & 15, Row: (i >> 8) % RowsPerBank}
			}
			for i := 0; warm && i < 4; i++ {
				if _, err := m.ColFlipMask(loc(i), victim, agg, 1, 10_000, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = 0
				}
				n, err := m.ColFlipMask(loc(i), victim, agg, 1, 10_000, dst)
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
			b.ReportMetric(float64(total)/float64(b.N), "flips/op")
		})
	}
}
