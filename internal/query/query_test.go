package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/rowmap"
	"hbmrd/internal/stats"
	"hbmrd/internal/store"
)

func TestCanonicalSpec(t *testing.T) {
	t.Parallel()
	c, err := Spec{
		Sweep:    " sha256:abc ",
		GroupBy:  []string{" Chip ", "PATTERN_LABEL"},
		Metric:   " HCFirst ",
		Where:    []Cond{{Dim: "Found", Value: "true"}},
		Reducers: []string{"Box", "box", "COUNT"},
		// Unused reducer parameters must be stripped from the canonical
		// form so they cannot fragment the cache key.
		Percentiles: []float64{50},
		Edges:       []float64{0, 1},
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Sweep:    "sha256:abc",
		GroupBy:  []string{"chip", "pattern_label"},
		Metric:   "hcfirst",
		Where:    []Cond{{Dim: "found", Op: "eq", Value: "true"}},
		Reducers: []string{"box", "count"},
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("canonical = %+v, want %+v", c, want)
	}

	// Two spellings of the same query share one derived key; a different
	// query gets a different key.
	k1, err := DerivedKey(Spec{Sweep: "sha256:abc", Metric: "HCFirst", GroupBy: []string{"Chip"}})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := DerivedKey(Spec{Sweep: "sha256:abc", Metric: "hcfirst", GroupBy: []string{"chip"}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent specs keyed differently: %s vs %s", k1, k2)
	}
	k3, err := DerivedKey(Spec{Sweep: "sha256:abc", Metric: "hcfirst", GroupBy: []string{"channel"}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("different specs share a derived key")
	}

	for _, bad := range []Spec{
		{}, // no metric
		{Metric: "hcfirst", Reducers: []string{"avg"}},                               // unknown reducer
		{Metric: "hcfirst", Where: []Cond{{Dim: "chip", Op: "like", Value: "1"}}},    // unknown op
		{Metric: "hcfirst", Reducers: []string{"percentiles"}},                       // missing ps
		{Metric: "hcfirst", Reducers: []string{"histogram"}, Edges: []float64{3, 1}}, // bad edges
	} {
		if _, err := bad.Canonical(); !errors.Is(err, ErrSpec) {
			t.Errorf("spec %+v: err = %v, want ErrSpec", bad, err)
		}
	}
}

// fig5Records is a hand-built HCFirst record set with known structure:
// two chips, two patterns plus a WCDP record, one not-found row.
func fig5Records() []core.HCFirstRecord {
	return []core.HCFirstRecord{
		{Chip: 0, Channel: 0, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 20000, Found: true},
		{Chip: 0, Channel: 0, Row: 10, Pattern: pattern.Checkered0, HCFirst: 30000, Found: true},
		{Chip: 0, Channel: 0, Row: 10, Pattern: pattern.Rowstripe0, WCDP: true, HCFirst: 20000, Found: true},
		{Chip: 0, Channel: 1, Row: 11, Pattern: pattern.Rowstripe0, HCFirst: 26000, Found: true},
		{Chip: 0, Channel: 1, Row: 11, Pattern: pattern.Checkered0, Found: false},
		{Chip: 0, Channel: 1, Row: 11, Pattern: pattern.Rowstripe0, WCDP: true, HCFirst: 26000, Found: true},
		{Chip: 3, Channel: 0, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 40000, Found: true},
		{Chip: 3, Channel: 0, Row: 10, Pattern: pattern.Rowstripe0, WCDP: true, HCFirst: 40000, Found: true},
	}
}

func TestComputeFig5Aggregation(t *testing.T) {
	t.Parallel()
	spec, err := FigureSpec("fig5", "sha256:test")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ComputeRecords(core.KindHCFirst, fig5Records(), spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Records != 8 || agg.Matched != 7 {
		t.Errorf("records/matched = %d/%d, want 8/7 (one not-found row filtered)", agg.Records, agg.Matched)
	}
	// Groups sort chip-numerically, then by label.
	wantKeys := [][]string{
		{"0", "Checkered0"}, {"0", "Rowstripe0"}, {"0", "WCDP"},
		{"3", "Rowstripe0"}, {"3", "WCDP"},
	}
	if len(agg.Groups) != len(wantKeys) {
		t.Fatalf("%d groups, want %d", len(agg.Groups), len(wantKeys))
	}
	for i, g := range agg.Groups {
		if !reflect.DeepEqual(g.Key, wantKeys[i]) {
			t.Errorf("group %d key = %v, want %v", i, g.Key, wantKeys[i])
		}
	}
	// Chip 0 / Rowstripe0 box over {20000, 26000} must equal stats.Box.
	g := agg.Groups[1]
	want := stats.Box([]float64{20000, 26000})
	if g.Count != 2 || g.Box == nil ||
		g.Box.Min != want.Min || g.Box.Median != want.Median || g.Box.Max != want.Max || g.Box.Mean != want.Mean {
		t.Errorf("chip0/Rowstripe0 box = %+v, want %+v", g.Box, want)
	}
}

// TestFigurePresetDefinitions pins what each figure preset computes, in
// the table form `hbmrd figN` and `hbmrd query -figure figN` print, over
// hand-built records: its group-by columns, filter and reducers.
func TestFigurePresetDefinitions(t *testing.T) {
	t.Parallel()
	ber := []core.BERRecord{
		{Chip: 0, Channel: 0, Pattern: pattern.Checkered0, BERPercent: 1.0},
		{Chip: 0, Channel: 0, Pattern: pattern.Checkered0, WCDP: true, BERPercent: 1.0},
		{Chip: 0, Channel: 1, Pattern: pattern.Rowstripe0, BERPercent: 0.5},
		{Chip: 5, Channel: 0, Pattern: pattern.Checkered0, BERPercent: 0.6},
	}
	hcFirst := []core.HCFirstRecord{
		{Chip: 0, Channel: 0, Pattern: pattern.Checkered0, HCFirst: 20000, Found: true},
		{Chip: 0, Channel: 0, Pattern: pattern.Checkered0, WCDP: true, HCFirst: 20000, Found: true},
		{Chip: 0, Channel: 2, Pattern: pattern.Rowstripe1, HCFirst: 90000, Found: true},
		{Chip: 1, Channel: 0, Pattern: pattern.Rowstripe1, Found: false},
	}
	ps := []float64{1, 5, 10, 25, 50, 75, 90, 95, 99}
	fig13Row := []string{"2"}
	for _, v := range stats.Percentiles([]float64{1.09, 2.2}, ps) {
		fig13Row = append(fig13Row, fmtNum(v))
	}
	fig13Row = append(fig13Row, "2.2")
	for _, tc := range []struct {
		fig    string
		kind   core.Kind
		recs   any
		header []string
		rows   [][]string
	}{
		// Fig 4: BER box per chip and data pattern, WCDP as its own group.
		{"fig4", core.KindBER, ber,
			[]string{"chip", "pattern_label", "count", "box_min", "box_q1", "box_median", "box_q3", "box_max", "box_mean"},
			[][]string{
				{"0", "Checkered0", "1", "1", "1", "1", "1", "1", "1"},
				{"0", "Rowstripe0", "1", "0.5", "0.5", "0.5", "0.5", "0.5", "0.5"},
				{"0", "WCDP", "1", "1", "1", "1", "1", "1", "1"},
				{"5", "Checkered0", "1", "0.6", "0.6", "0.6", "0.6", "0.6", "0.6"},
			}},
		// Fig 5: HCfirst box per chip and pattern over rows that flipped.
		{"fig5", core.KindHCFirst, hcFirst,
			[]string{"chip", "pattern_label", "count", "box_min", "box_q1", "box_median", "box_q3", "box_max", "box_mean"},
			[][]string{
				{"0", "Checkered0", "1", "20000", "20000", "20000", "20000", "20000", "20000"},
				{"0", "Rowstripe1", "1", "90000", "90000", "90000", "90000", "90000", "90000"},
				{"0", "WCDP", "1", "20000", "20000", "20000", "20000", "20000", "20000"},
			}},
		// Fig 6: WCDP BER across the channels of each chip.
		{"fig6", core.KindBER, ber,
			[]string{"chip", "channel", "count", "mean", "min", "max"},
			[][]string{{"0", "0", "1", "1", "1", "1"}}},
		// Fig 7: WCDP HCfirst across the channels of each chip.
		{"fig7", core.KindHCFirst, hcFirst,
			[]string{"chip", "channel", "count", "box_min", "box_q1", "box_median", "box_q3", "box_max", "box_mean"},
			[][]string{{"0", "0", "1", "20000", "20000", "20000", "20000", "20000", "20000"}}},
		// Fig 9: the per-bank (mean BER, CV) scatter of WCDP records.
		{"fig9", core.KindBER, []core.BERRecord{
			{Chip: 0, Channel: 0, Bank: 0, Row: 1, WCDP: true, BERPercent: 1.0},
			{Chip: 0, Channel: 0, Bank: 0, Row: 2, WCDP: true, BERPercent: 1.4},
			{Chip: 0, Channel: 0, Bank: 0, Row: 2, Pattern: pattern.Checkered1, BERPercent: 9},
			{Chip: 0, Channel: 0, Bank: 1, Row: 1, WCDP: true, BERPercent: 0.8},
		},
			[]string{"chip", "channel", "pseudo", "bank", "count", "mean", "cv"},
			[][]string{
				{"0", "0", "0", "0", "2", fmtNum(stats.Mean([]float64{1.0, 1.4})), fmtNum(stats.CV([]float64{1.0, 1.4}))},
				{"0", "0", "0", "1", "1", "0.8", "0"},
			}},
		// Fig 13: percentiles and max of the max/min HCfirst ratio across
		// every measured row.
		{"fig13", core.KindVariability, []core.VariabilityRecord{
			{MinHC: 100, MaxHC: 109, MeasuredRatios: true},
			{MinHC: 100, MaxHC: 220, MeasuredRatios: true},
			{MeasuredRatios: false},
		},
			[]string{"count", "p1", "p5", "p10", "p25", "p50", "p75", "p90", "p95", "p99", "max"},
			[][]string{fig13Row}},
		// Fig 14: RowPress BER per (chip, channel) at each tAggON (ps).
		{"fig14", core.KindRowPressBER, []core.RowPressBERRecord{
			{Chip: 0, Channel: 0, TAggON: 29 * hbm.NS, BERPercent: 0.08},
			{Chip: 0, Channel: 0, TAggON: 35_100 * hbm.NS, BERPercent: 50.3, RetentionBERPercent: 0.134},
		},
			[]string{"chip", "channel", "tagg_on", "count", "mean"},
			[][]string{{"0", "0", "29000", "1", "0.08"}, {"0", "0", "35100000", "1", "50.3"}}},
		// Fig 16: TRR-bypass BER per (dummy rows, aggressor ACTs per tREFI).
		{"fig16", core.KindBypass, []core.BypassRecord{
			{Dummies: 3, AggActs: 18, BERPercent: 0},
			{Dummies: 4, AggActs: 18, BERPercent: 0.02},
			{Dummies: 4, AggActs: 34, BERPercent: 0.06},
		},
			[]string{"dummies", "agg_acts", "count", "mean", "max"},
			[][]string{{"3", "18", "1", "0", "0"}, {"4", "18", "1", "0.02", "0.02"}, {"4", "34", "1", "0.06", "0.06"}}},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			spec, err := FigureSpec(tc.fig, "sha256:test")
			if err != nil {
				t.Fatal(err)
			}
			agg, err := ComputeRecords(tc.kind, tc.recs, spec, Env{})
			if err != nil {
				t.Fatal(err)
			}
			header, rows := agg.Table()
			if !reflect.DeepEqual(header, tc.header) {
				t.Errorf("header = %q, want %q", header, tc.header)
			}
			if !reflect.DeepEqual(rows, tc.rows) {
				t.Errorf("rows = %q, want %q", rows, tc.rows)
			}
		})
	}

	// Fig 14's retention BER left the figure's table but stays queryable.
	agg, err := ComputeRecords(core.KindRowPressBER, []core.RowPressBERRecord{
		{TAggON: 35_100 * hbm.NS, BERPercent: 50.3, RetentionBERPercent: 0.134},
	}, Spec{Metric: "retention_ber_percent", Reducers: []string{"max"}}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, rows := agg.Table(); !reflect.DeepEqual(rows, [][]string{{"1", "0.134"}}) {
		t.Errorf("retention_ber_percent rows = %q", rows)
	}
}

func TestComputeFilterAndReducers(t *testing.T) {
	t.Parallel()
	recs := fig5Records()
	agg, err := ComputeRecords(core.KindHCFirst, recs, Spec{
		Sweep:  "sha256:test",
		Metric: "hcfirst",
		Where: []Cond{
			{Dim: "wcdp", Value: "false"},
			{Dim: "found", Value: "true"},
			{Dim: "hcfirst", Op: "ge", Value: "26000"},
		},
		Reducers:    []string{"count", "mean", "min", "max", "median", "stddev", "cv", "percentiles", "histogram"},
		Percentiles: []float64{50, 90},
		Edges:       []float64{0, 35000, 50000},
	}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Three non-WCDP found records at >= 26000: 30000, 26000, 40000.
	if len(agg.Groups) != 1 {
		t.Fatalf("%d groups, want 1 (no group-by)", len(agg.Groups))
	}
	g := agg.Groups[0]
	if g.Count != 3 || g.Mean == nil || *g.Mean != 32000 {
		t.Errorf("count/mean = %d/%v", g.Count, g.Mean)
	}
	if *g.Min != 26000 || *g.Max != 40000 || *g.Median != 30000 {
		t.Errorf("min/median/max = %v/%v/%v", *g.Min, *g.Median, *g.Max)
	}
	if len(g.Percentiles) != 2 || g.Percentiles[0].P != 50 || *g.Percentiles[0].Value != 30000 {
		t.Errorf("percentiles = %+v", g.Percentiles)
	}
	if len(g.Histogram) != 2 || g.Histogram[0].Count != 2 || g.Histogram[1].Count != 1 {
		t.Errorf("histogram = %+v", g.Histogram)
	}

	// Unknown dimension and metric are spec errors naming the kind.
	if _, err := ComputeRecords(core.KindHCFirst, recs, Spec{Metric: "ber_percent"}, Env{}); !errors.Is(err, ErrSpec) {
		t.Errorf("wrong metric: %v", err)
	}
	if _, err := ComputeRecords(core.KindHCFirst, recs, Spec{Metric: "hcfirst", GroupBy: []string{"dummies"}}, Env{}); !errors.Is(err, ErrSpec) {
		t.Errorf("wrong dim: %v", err)
	}
}

// runTinyHCFirstToFile performs the `hbmrd -out` flow: a small HCFirst
// sweep streamed to a JSONL file through a file sink.
func runTinyHCFirstToFile(t *testing.T, path string) {
	t.Helper()
	fleet, err := core.NewFleet([]int{0, 3}, hbm.WithMapper(rowmap.Identity{NumRows: hbm.NumRows}))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := core.NewJSONLFileSink(f)
	if _, err := core.RunHCFirstContext(context.Background(), fleet, core.HCFirstConfig{
		Channels: []int{0, 1}, Rows: core.SampleRows(2),
		Patterns: []pattern.Pattern{pattern.Rowstripe0, pattern.Checkered0}, Reps: 1,
	}, core.WithSink(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFig5CacheByteIdentity is the acceptance flow: a sweep
// produced by the -out file sink, ingested into the store, reproduces the
// Fig 5 aggregation; running the identical spec again is served from the
// derived cache byte-identically without re-reading the raw records - and
// an independent engine over the same store (the CLI against a store the
// service populated) returns the same bytes with zero raw reads.
func TestEngineFig5CacheByteIdentity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "hcfirst.jsonl")
	runTinyHCFirstToFile(t, path)

	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := Ingest(st, path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Kind != "hcfirst" || meta.Records == 0 || meta.Bytes == 0 {
		t.Fatalf("ingested meta = %+v", meta)
	}

	spec, err := FigureSpec("fig5", meta.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	first, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first run reported a cache hit")
	}
	if eng.RawReads() != 1 {
		t.Errorf("first run made %d raw reads, want 1", eng.RawReads())
	}
	if len(first.Aggregate.Groups) == 0 {
		t.Fatal("fig5 aggregate has no groups")
	}

	second, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical spec missed the derived cache")
	}
	if eng.RawReads() != 1 {
		t.Errorf("cache hit re-read the raw records (%d raw reads)", eng.RawReads())
	}
	if !bytes.Equal(first.JSON, second.JSON) {
		t.Error("cache hit returned different aggregate bytes")
	}

	// A fresh engine (the CLI path over the same store) serves the same
	// bytes from the cache without touching the raw records at all.
	cli := NewEngine(st)
	third, err := cli.Run(Spec{
		Sweep:    meta.Fingerprint,
		GroupBy:  []string{"CHIP", "Pattern_Label"}, // equivalent spelling
		Metric:   "HCFIRST",
		Where:    []Cond{{Dim: "found", Value: "true"}},
		Reducers: []string{"box"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit || cli.RawReads() != 0 {
		t.Errorf("fresh engine: hit=%v rawReads=%d, want hit with 0 raw reads", third.CacheHit, cli.RawReads())
	}
	if !bytes.Equal(first.JSON, third.JSON) {
		t.Error("CLI-path aggregate bytes differ from the service-path bytes")
	}

	// The rendered forms are deterministic functions of the aggregate.
	if first.Aggregate.CSV() != third.Aggregate.CSV() {
		t.Error("CSV renders differ between cache paths")
	}
	header, rows := first.Aggregate.Table()
	if len(header) == 0 || len(rows) != len(first.Aggregate.Groups) {
		t.Errorf("table form: %d header cols, %d rows", len(header), len(rows))
	}

	// Unknown sweep maps to the store's not-found error.
	if _, err := eng.Run(Spec{Sweep: "sha256:" + strings.Repeat("ab", 32), Metric: "hcfirst"}); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown sweep: %v, want ErrNotFound", err)
	}
}

func TestIngestRejectsPartialSweeps(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "hcfirst.jsonl")
	runTinyHCFirstToFile(t, path)
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: the final line lost its newline.
	torn := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(torn, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(st, torn); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn file ingested: %v", err)
	}

	// Whole lines, but fewer records than the plan has cells.
	headerEnd := bytes.IndexByte(full, '\n') + 1
	cut := bytes.IndexByte(full[headerEnd:], '\n') + headerEnd + 1
	short := filepath.Join(dir, "short.jsonl")
	if err := os.WriteFile(short, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(st, short); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("short file ingested: %v", err)
	}

	// Not a sweep file at all.
	junk := filepath.Join(dir, "junk.jsonl")
	if err := os.WriteFile(junk, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(st, junk); err == nil {
		t.Error("junk file ingested")
	}
}

// TestIngestRejectsCellBoundaryTruncation is the regression test for the
// multi-record-per-cell gap: a BER sweep cancelled at a cell boundary
// leaves only clean, WCDP-terminated runs - its record count can exceed
// its cell count even though most cells never ran - and must still be
// rejected. Completeness comes from counting covered cells against the
// header's plan, not from comparing records to cells.
func TestIngestRejectsCellBoundaryTruncation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	fleet, err := core.NewFleet([]int{0}, hbm.WithMapper(rowmap.Identity{NumRows: hbm.NumRows}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ber.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewJSONLFileSink(f)
	// 8 cells (2 channels x 4 rows), 5 records per cell (4 patterns+WCDP):
	// two whole cells already exceed the plan's cell count in records.
	if _, err := core.RunBERContext(context.Background(), fleet, core.BERConfig{
		Channels: []int{0, 1}, Rows: core.SampleRows(4), Reps: 1,
	}, core.WithSink(sink)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	// Header + two whole cells (10 records > 8 cells), cut on a boundary.
	cut := bytes.Join(lines[:1+2*5], nil)
	part := filepath.Join(dir, "part.jsonl")
	if err := os.WriteFile(part, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(st, part); err == nil || !strings.Contains(err.Error(), "2 of 8") {
		t.Errorf("cell-boundary truncation ingested: %v", err)
	}
	// Mid-cell cut (whole lines, WCDP missing) is also rejected.
	midCut := bytes.Join(lines[:1+2*5+3], nil)
	mid := filepath.Join(dir, "mid.jsonl")
	if err := os.WriteFile(mid, midCut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(st, mid); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("mid-cell truncation ingested: %v", err)
	}
	// The whole file still ingests.
	if _, err := Ingest(st, path); err != nil {
		t.Errorf("complete sweep rejected: %v", err)
	}
	// Aging files cannot prove completeness and are rejected outright.
	agingPath := filepath.Join(dir, "aging.jsonl")
	af, err := os.Create(agingPath)
	if err != nil {
		t.Fatal(err)
	}
	asink := core.NewJSONLFileSink(af)
	if _, err := core.RunAgingContext(context.Background(), fleet, core.AgingConfig{
		BER: core.BERConfig{Channels: []int{0}, Rows: core.SampleRows(1), Reps: 1,
			Patterns: []pattern.Pattern{pattern.Checkered1}},
	}, core.WithSink(asink)); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(st, agingPath); err == nil || !strings.Contains(err.Error(), "aging") {
		t.Errorf("aging file ingested: %v", err)
	}
}

func TestCatalogFind(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := func(fp, kind string) string {
		return `{"hbmrd_sweep":1,"kind":"` + kind + `","fingerprint":"` + fp + `","cells":1,"generation":1}` + "\n" + `{"Chip":0}` + "\n"
	}
	put := func(fp string, m store.Meta) {
		m.Fingerprint = fp
		if err := st.Put(m, strings.NewReader(content(fp, m.Kind))); err != nil {
			t.Fatal(err)
		}
	}
	fpA := "sha256:" + strings.Repeat("aa", 32)
	fpB := "sha256:" + strings.Repeat("bb", 32)
	fpC := "sha256:" + strings.Repeat("cc", 32)
	put(fpA, store.Meta{Kind: "ber", Geometry: "HBM2_8Gb", Chips: []int{0, 5}, Config: []byte(`{"Reps":1}`)})
	put(fpB, store.Meta{Kind: "hcfirst", Geometry: "HBM3_16Gb", Chips: []int{0}})
	put(fpC, store.Meta{Kind: "ber"}) // ingested bare: no catalog metadata

	cat, err := NewCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 3 {
		t.Fatalf("catalog holds %d sweeps, want 3", cat.Len())
	}
	if got := cat.Find(ByKind("ber")); len(got) != 2 {
		t.Errorf("ByKind(ber) = %d entries, want 2", len(got))
	}
	if got := cat.Find(ByGeometry("HBM3_16Gb")); len(got) != 1 || got[0].Fingerprint != fpB {
		t.Errorf("ByGeometry = %+v", got)
	}
	if got := cat.Find(ByChips(5, 0)); len(got) != 1 || got[0].Fingerprint != fpA {
		t.Errorf("ByChips(5,0) = %+v", got)
	}
	if got := cat.Find(ByConfig(func(raw json.RawMessage) bool { return strings.Contains(string(raw), "Reps") })); len(got) != 1 {
		t.Errorf("ByConfig = %d entries, want 1", len(got))
	}
	if got := cat.Find(ByKind("ber"), ByGeometry("HBM2_8Gb")); len(got) != 1 || got[0].Fingerprint != fpA {
		t.Errorf("conjunction = %+v", got)
	}
}

func TestFigureSpecUnknown(t *testing.T) {
	t.Parallel()
	if _, err := FigureSpec("fig999", "sha256:x"); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown figure: %v", err)
	}
}
