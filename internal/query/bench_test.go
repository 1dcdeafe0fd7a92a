package query

import (
	"bytes"
	"slices"
	"strconv"
	"testing"

	"hbmrd/internal/core"
	"hbmrd/internal/pattern"
	"hbmrd/internal/store"
)

const benchSweepFP = "sha256:" + "beefbeefbeefbeefbeefbeefbeefbeefbeefbeefbeefbeefbeefbeefbeefbeef"

// benchHCFirstRecords synthesizes a deterministic Fig5-shaped HCFirst
// sweep: 2 chips x 2 channels x 4 patterns (+WCDP folding) over enough
// rows to make the per-record decode cost visible.
func benchHCFirstRecords(n int) []core.HCFirstRecord {
	pats := pattern.All()
	recs := make([]core.HCFirstRecord, 0, n)
	for i := 0; len(recs) < n; i++ {
		chip := (i / 2048) * 3 % 7
		recs = append(recs, core.HCFirstRecord{
			Chip:    chip,
			Channel: i / 1024 % 2,
			Pseudo:  i % 2,
			Bank:    i % 32,
			Row:     64 + i%512,
			Pattern: pats[i%len(pats)],
			WCDP:    i%5 == 4,
			HCFirst: 10_000 + (i*37)%40_000,
			Found:   i%11 != 0,
		})
	}
	return recs
}

// benchEngine finalizes the synthetic sweep into a fresh store (JSONL
// plus columnar artifact) and returns an engine plus the Fig5 spec.
func benchEngine(b *testing.B, n int) (*Engine, Spec) {
	b.Helper()
	recs := benchHCFirstRecords(n)
	h := core.SweepHeader{Format: 1, Kind: string(core.KindHCFirst), Fingerprint: benchSweepFP, Cells: n, Generation: 1}
	var buf bytes.Buffer
	if err := core.EncodeRecords(&buf, h, recs); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(store.Meta{Fingerprint: benchSweepFP, Kind: h.Kind, Cells: n}, bytes.NewReader(buf.Bytes())); err != nil {
		b.Fatal(err)
	}
	if !st.HasColumnar(benchSweepFP) {
		b.Fatal("benchmark sweep finalized without a columnar artifact")
	}
	spec, err := FigureSpec("fig5", benchSweepFP)
	if err != nil {
		b.Fatal(err)
	}
	return NewEngine(st), spec
}

// BenchmarkQueryFig5ColdMiss measures the derived-cache miss path end to
// end through Engine.Run - store read, decode, filter/group/reduce, cache
// write - over the stored columnar twin, and over a sweep whose twin is
// deleted before each iteration, so the miss first rebuilds it from the
// JSONL of record. Each iteration sends a spec of its own so that none is
// a cache hit.
func BenchmarkQueryFig5ColdMiss(b *testing.B) {
	for _, name := range []string{"columnar", "twinless"} {
		b.Run(name, func(b *testing.B) {
			eng, base := benchEngine(b, 16*1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if name == "twinless" {
					b.StopTimer()
					if err := eng.Store.DropColumnar(benchSweepFP); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				// An always-true bound unique to the iteration: a new
				// derived key, the same matched records.
				spec := base
				spec.Where = append(slices.Clip(base.Where), Cond{Dim: "hcfirst", Op: "gt", Value: strconv.Itoa(-1 - i)})
				res, err := eng.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.CacheHit || len(res.Aggregate.Groups) == 0 {
					b.Fatal("cache hit or empty aggregate")
				}
			}
		})
	}
}

// BenchmarkColumnarDecode isolates the artifact decode from the query on
// top of it: bytes in memory to a ColumnSet ready for ComputeColumnar.
// full parses every column; projected parses only the two columns of a
// per-chip HCfirst spec, as the engine's cold path does.
func BenchmarkColumnarDecode(b *testing.B) {
	n := 16 * 1024
	recs := benchHCFirstRecords(n)
	h := core.SweepHeader{Format: 1, Kind: string(core.KindHCFirst), Fingerprint: benchSweepFP, Cells: n, Generation: 1}
	var art bytes.Buffer
	if err := core.EncodeColumnar(&art, h, recs); err != nil {
		b.Fatal(err)
	}
	data := art.Bytes()
	cols := specColumns(Spec{Sweep: benchSweepFP, GroupBy: []string{"chip"}, Metric: "hcfirst"})
	for _, bc := range []struct {
		name string
		want func(string) bool
	}{
		{"full", nil},
		{"projected", func(name string) bool { return cols[name] }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs, err := core.DecodeColumnarProjected(bytes.NewReader(data), bc.want)
				if err != nil {
					b.Fatal(err)
				}
				if cs.Len() != n {
					b.Fatal("short decode")
				}
			}
		})
	}
}

// BenchmarkColumnarEncode measures the transcode the store runs at every
// finalize: a typed record slice to the columnar artifact bytes, over the
// same records BenchmarkColumnarDecode reads back.
func BenchmarkColumnarEncode(b *testing.B) {
	n := 16 * 1024
	recs := benchHCFirstRecords(n)
	h := core.SweepHeader{Format: 1, Kind: string(core.KindHCFirst), Fingerprint: benchSweepFP, Cells: n, Generation: 1}
	var art bytes.Buffer
	if err := core.EncodeColumnar(&art, h, recs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(art.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art.Reset()
		if err := core.EncodeColumnar(&art, h, recs); err != nil {
			b.Fatal(err)
		}
	}
}
