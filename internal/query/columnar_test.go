package query

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/store"
)

// equivRecords hand-builds one record set per kind with the awkward
// cases both compute paths must agree on: WCDP folding, not-found rows,
// sparse metrics (empty HC lists), MinHC zero, nil-vs-present masks,
// and bank addresses spanning multiple ranks.
func equivRecords() map[core.Kind]any {
	return map[core.Kind]any{
		core.KindBER: []core.BERRecord{
			{Chip: 0, Channel: 0, Pseudo: 0, Bank: 0, Row: 10, Pattern: pattern.Rowstripe0, BERPercent: 0.5},
			{Chip: 0, Channel: 0, Pseudo: 1, Bank: 15, Row: 10, Pattern: pattern.Checkered0, BERPercent: 1.25, Mask: []byte{0xAA}},
			{Chip: 0, Channel: 1, Pseudo: 0, Bank: 16, Row: 11, Pattern: pattern.Rowstripe0, WCDP: true, BERPercent: 2},
			{Chip: 3, Channel: 0, Pseudo: 0, Bank: 47, Row: 10, Pattern: pattern.Rowstripe1, BERPercent: 0},
			{Chip: 3, Channel: 7, Pseudo: 1, Bank: 31, Row: 12, Pattern: pattern.Checkered1, WCDP: true, BERPercent: 0.125},
		},
		core.KindHCFirst: []core.HCFirstRecord{
			{Chip: 0, Channel: 0, Pseudo: 0, Bank: 0, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 20000, Found: true},
			{Chip: 0, Channel: 0, Pseudo: 0, Bank: 15, Row: 10, Pattern: pattern.Checkered0, HCFirst: 30000, Found: true},
			{Chip: 0, Channel: 1, Pseudo: 1, Bank: 16, Row: 11, Pattern: pattern.Rowstripe0, WCDP: true, HCFirst: 18000, Found: true},
			{Chip: 0, Channel: 1, Pseudo: 0, Bank: 17, Row: 11, Pattern: pattern.Checkered0, Found: false},
			{Chip: 3, Channel: 0, Pseudo: 0, Bank: 47, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 40000, Found: true},
			{Chip: 3, Channel: 0, Pseudo: 1, Bank: 32, Row: 12, Pattern: pattern.Rowstripe0, WCDP: true, HCFirst: 39000, Found: true},
		},
		core.KindHCNth: []core.HCNthRecord{
			{Chip: 0, Channel: 0, Row: 10, Pattern: pattern.Rowstripe0, HC: []int{10000, 10250, 11000}, Found: true},
			{Chip: 0, Channel: 0, Row: 11, Pattern: pattern.Checkered0, HC: nil, Found: false},
			{Chip: 0, Channel: 1, Row: 10, Pattern: pattern.Rowstripe0, HC: []int{}, Found: false},
			{Chip: 3, Channel: 0, Row: 12, Pattern: pattern.Rowstripe0, HC: []int{25000}, Found: true},
		},
		core.KindVariability: []core.VariabilityRecord{
			{Chip: 0, Row: 10, MinHC: 10000, MaxHC: 24000, Iterations: 5, MeasuredRatios: true},
			{Chip: 0, Row: 11, MinHC: 0, MaxHC: 0, Iterations: 5, MeasuredRatios: false},
			{Chip: 3, Row: 10, MinHC: 16000, MaxHC: 16000, Iterations: 5, MeasuredRatios: true},
		},
		core.KindRowPressBER: []core.RowPressBERRecord{
			{Chip: 0, Channel: 0, TAggON: 29 * hbm.NS, BERPercent: 0.5, RetentionBERPercent: 0.01, Rows: 32},
			{Chip: 0, Channel: 0, TAggON: 3900 * hbm.NS, BERPercent: 2.5, RetentionBERPercent: 0.25, Rows: 32},
			{Chip: 3, Channel: 1, TAggON: 29 * hbm.NS, BERPercent: 0.75, RetentionBERPercent: 0, Rows: 16},
		},
		core.KindRowPressHC: []core.RowPressHCRecord{
			{Chip: 0, Channel: 0, Row: 10, TAggON: 29 * hbm.NS, HCFirst: 20000, Found: true, WithinWindow: true},
			{Chip: 0, Channel: 0, Row: 10, TAggON: 3900 * hbm.NS, HCFirst: 4000, Found: true, WithinWindow: false},
			{Chip: 3, Channel: 1, Row: 11, TAggON: 29 * hbm.NS, Found: false, WithinWindow: true},
		},
		core.KindBypass: []core.BypassRecord{
			{Chip: 0, Row: 10, Dummies: 1, AggActs: 18, BERPercent: 0.5},
			{Chip: 0, Row: 10, Dummies: 4, AggActs: 36, BERPercent: 1.5},
			{Chip: 3, Row: 11, Dummies: 1, AggActs: 18, BERPercent: 0},
		},
		core.KindAging: []core.AgingRecord{
			{Chip: 0, Channel: 0, Row: 10, OldBERPercent: 0.5, NewBERPercent: 0.75},
			{Chip: 0, Channel: 1, Row: 11, OldBERPercent: 1, NewBERPercent: 0.5},
			{Chip: 3, Channel: 0, Row: 10, OldBERPercent: 0, NewBERPercent: 0},
		},
		core.KindVRD: []core.VRDRecord{
			{Chip: 0, Channel: 0, Pseudo: 0, Bank: 0, Row: 10, Pattern: pattern.Rowstripe0, Trials: 3,
				Found: 3, MinHC: 12000, MaxHC: 19000, MeanHC: 15000.5, PHC: 19000, HCs: []int{12000, 19000, 14001}},
			// Found 0: measured is false and the ratio's MinHC is 0.
			{Chip: 0, Channel: 1, Pseudo: 1, Bank: 17, Row: 11, Pattern: pattern.Rowstripe0, Trials: 3,
				HCs: []int{0, 0, 0}},
			{Chip: 3, Channel: 0, Pseudo: 0, Bank: 47, Row: 12, Pattern: pattern.Checkered1, Trials: 2,
				Found: 1, MinHC: 30000, MaxHC: 30000, MeanHC: 30000, PHC: 30000, HCs: []int{0, 30000}},
		},
		core.KindColDisturb: []core.ColDisturbRecord{
			{Chip: 0, Channel: 0, Pseudo: 0, Bank: 0, Row: 100, Distance: 1, Stripe: 2, Reads: 10000,
				Flips: 7, ColFlips: []int{3, 0, 4}, FirstDisturb: 2500, Found: true},
			// Not found, with a nil and an empty per-column list.
			{Chip: 0, Channel: 0, Pseudo: 0, Bank: 16, Row: 100, Distance: 8, Stripe: 2, Reads: 10000,
				ColFlips: nil},
			{Chip: 3, Channel: 1, Pseudo: 1, Bank: 33, Row: 200, Distance: -3, Stripe: 8, Reads: 10000,
				ColFlips: []int{}},
		},
	}
}

// equivSpecs returns every query both paths must answer identically for
// a kind: the figure presets that apply to it, plus hand specs covering
// sparse metrics, metric-threshold filters, every comparison op, and the
// parameterized reducers.
func equivSpecs(t *testing.T, kind core.Kind, sweep string) []Spec {
	t.Helper()
	figsByKind := map[core.Kind][]string{
		core.KindBER:         {"fig4", "fig6", "fig9"},
		core.KindHCFirst:     {"fig5", "fig7", "figrank"},
		core.KindVariability: {"fig13"},
		core.KindRowPressBER: {"fig14"},
		core.KindRowPressHC:  {"fig15"},
		core.KindBypass:      {"fig16"},
		core.KindVRD:         {"figvrd"},
		core.KindColDisturb:  {"figcoldist"},
	}
	var specs []Spec
	for _, fig := range figsByKind[kind] {
		s, err := FigureSpec(fig, sweep)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	// Ungrouped aggregation over the kind's first metric, with the
	// parameterized reducers.
	metric := Metrics(kind)[0]
	specs = append(specs, Spec{
		Sweep: sweep, Metric: metric,
		Reducers:    []string{"count", "mean", "stddev", "cv", "min", "max", "median", "percentiles", "histogram"},
		Percentiles: []float64{50, 90},
		Edges:       []float64{0, 10000, 1e12},
	})
	// Group by every dimension at once (exercises each accessor), with a
	// metric-threshold filter and a ne-op dimension filter.
	specs = append(specs, Spec{
		Sweep: sweep, GroupBy: Dimensions(kind), Metric: metric,
		Where: []Cond{
			{Dim: metric, Op: "ge", Value: "0"},
			{Dim: "chip", Op: "ne", Value: "7"},
		},
	})
	// Sparse-metric coverage: every metric as both aggregate and filter.
	for _, m := range Metrics(kind) {
		specs = append(specs, Spec{
			Sweep: sweep, GroupBy: []string{"chip"}, Metric: m,
			Where: []Cond{{Dim: m, Op: "gt", Value: "0.4"}},
		})
	}
	// Comparison-op sweep on a string-ish dimension and a numeric one.
	for _, op := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
		specs = append(specs, Spec{
			Sweep: sweep, GroupBy: []string{"chip"}, Metric: metric,
			Where: []Cond{{Dim: "chip", Op: op, Value: "3"}},
		})
	}
	return specs
}

// TestColumnarComputeEquivalence pins the query vocabulary's correctness
// for every registered kind: ComputeColumnar over the encoded artifact
// (fully decoded, and decoded with the engine's projection to the
// spec's columns) and over the typed records' columns all produce
// Aggregate JSON byte-identical to the flatten reference (computeFlatten)
// for every figure preset applicable to each kind, under every preset
// geometry's rank environment. The flatten path is the oracle; any divergence is a
// bug in the field table or the column accessors.
func TestColumnarComputeEquivalence(t *testing.T) {
	t.Parallel()
	envs := []Env{{}}
	for _, name := range []string{hbm.PresetHBM2, hbm.PresetHBM2E, hbm.PresetHBM3, "HBM3_16Gb_4R"} {
		p, err := hbm.LookupPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, Env{BanksPerRank: p.Geometry.Banks})
	}
	sweep := "sha256:" + strings.Repeat("ef", 32)
	all := equivRecords()
	for _, kind := range core.Kinds() {
		if _, ok := all[kind]; !ok {
			t.Errorf("equivRecords has no %s records", kind)
		}
	}
	for kind, recs := range all {
		kind, recs := kind, recs
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			h := core.SweepHeader{Format: 1, Kind: string(kind), Fingerprint: sweep, Cells: core.RecordCount(recs), Generation: 1}
			var art bytes.Buffer
			if err := core.EncodeColumnar(&art, h, recs); err != nil {
				t.Fatal(err)
			}
			cs, err := core.DecodeColumnar(bytes.NewReader(art.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			// Every declared name is one the oracle's rows carry.
			rows, err := flatten(kind, recs, Env{})
			if err != nil {
				t.Fatal(err)
			}
			carried := map[string]bool{}
			for _, r := range rows {
				for k := range r.dims {
					carried[k] = true
				}
				for k := range r.metrics {
					carried[k] = true
				}
			}
			for _, name := range append(Dimensions(kind), Metrics(kind)...) {
				if !carried[name] {
					t.Errorf("%s declares %s, which no flattened record carries", kind, name)
				}
			}
			for _, env := range envs {
				for _, spec := range equivSpecs(t, kind, sweep) {
					ref, err := computeFlatten(kind, recs, spec, env)
					if err != nil {
						t.Fatalf("computeFlatten(%+v): %v", spec, err)
					}
					refJSON, err := json.Marshal(ref)
					if err != nil {
						t.Fatal(err)
					}
					col, err := ComputeColumnar(cs, spec, env)
					if err != nil {
						t.Fatalf("ComputeColumnar(%+v): %v", spec, err)
					}
					fromRecs, err := computeRecords(kind, recs, spec, env)
					if err != nil {
						t.Fatalf("computeRecords(%+v): %v", spec, err)
					}
					// The engine's projected decode: only the columns the
					// spec's names read are parsed.
					cspec, err := spec.Canonical()
					if err != nil {
						t.Fatal(err)
					}
					cols := specColumns(cspec)
					pcs, err := core.DecodeColumnarProjected(bytes.NewReader(art.Bytes()), func(name string) bool { return cols[name] })
					if err != nil {
						t.Fatalf("projected decode for %+v: %v", spec, err)
					}
					projected, err := ComputeColumnar(pcs, spec, env)
					if err != nil {
						t.Fatalf("ComputeColumnar over the projected decode (%+v): %v", spec, err)
					}
					for path, agg := range map[string]*Aggregate{"columnar": col, "records": fromRecs, "projected": projected} {
						got, err := json.Marshal(agg)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(refJSON, got) {
							t.Fatalf("%s path diverges from flatten for env %+v spec %+v:\nflatten: %s\n%s: %s",
								path, env, spec, refJSON, path, got)
						}
					}
				}
			}
		})
	}
}

// twinPath locates a stored sweep's columnar artifact on disk.
func twinPath(t *testing.T, st *store.Store, fp string) string {
	t.Helper()
	jsonl, _, err := st.Path(fp)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(filepath.Dir(jsonl), "results.hbmc")
}

// TestEngineColumnarPreference: a cache miss is answered from the
// columnar artifact, a repeat is a cache hit, a cold recompute equals the
// served bytes, and a removed artifact is rebuilt from the JSONL and
// serves the same bytes.
func TestEngineColumnarPreference(t *testing.T) {
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
	if !st.HasColumnar(meta.Fingerprint) {
		t.Fatal("ingest finalized no columnar artifact")
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
	if first.Source != SourceColumnar || eng.RawReads() != 1 {
		t.Errorf("cold miss: source %q after %d raw reads, want %q after 1", first.Source, eng.RawReads(), SourceColumnar)
	}
	hit, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Source != SourceCache {
		t.Errorf("second run: hit=%v source=%q", hit.CacheHit, hit.Source)
	}

	// A cold recompute bypasses the cache and equals the served bytes.
	cold, err := eng.RunCold(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Source != SourceColumnar || !bytes.Equal(cold.JSON, first.JSON) {
		t.Errorf("cold recompute: hit=%v source=%q, bytes equal to served: %v", cold.CacheHit, cold.Source, bytes.Equal(cold.JSON, first.JSON))
	}

	// Strip the artifact: the next cold query rebuilds it from the JSONL
	// and answers with the same bytes.
	if err := os.Remove(twinPath(t, st, meta.Fingerprint)); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := eng.RunCold(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasColumnar(meta.Fingerprint) {
		t.Error("twin-less miss did not rebuild the columnar artifact")
	}
	if rebuilt.Source != SourceColumnar || !bytes.Equal(rebuilt.JSON, first.JSON) {
		t.Errorf("rebuilt twin: source %q, bytes equal to served: %v", rebuilt.Source, bytes.Equal(rebuilt.JSON, first.JSON))
	}
}

// TestRankDimension: rank derives from the bank address via the env's
// BanksPerRank, the zero Env collapses everything to rank 0, and the
// figrank preset reproduces the per-(chip, rank) grouping end to end
// through the engine on a multi-rank geometry.
func TestRankDimension(t *testing.T) {
	t.Parallel()
	for _, kind := range []core.Kind{core.KindBER, core.KindHCFirst} {
		if !hasName(Dimensions(kind), "rank") {
			t.Errorf("kind %s lacks the rank dimension", kind)
		}
	}

	recs := []core.HCFirstRecord{
		{Chip: 0, Bank: 0, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 20000, Found: true},
		{Chip: 0, Bank: 15, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 21000, Found: true},
		{Chip: 0, Bank: 16, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 30000, Found: true},
		{Chip: 0, Bank: 47, Row: 10, Pattern: pattern.Rowstripe0, HCFirst: 44000, Found: true},
	}
	spec := Spec{Sweep: "sha256:x", GroupBy: []string{"rank"}, Metric: "hcfirst"}
	agg, err := computeRecords(core.KindHCFirst, recs, spec, Env{BanksPerRank: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Groups) != 3 ||
		agg.Groups[0].Key[0] != "0" || agg.Groups[0].Count != 2 ||
		agg.Groups[1].Key[0] != "1" || agg.Groups[1].Count != 1 ||
		agg.Groups[2].Key[0] != "2" || agg.Groups[2].Count != 1 {
		t.Errorf("rank groups = %+v", agg.Groups)
	}
	flat, err := computeRecords(core.KindHCFirst, recs, spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Groups) != 1 || flat.Groups[0].Key[0] != "0" || flat.Groups[0].Count != 4 {
		t.Errorf("zero-env rank groups = %+v", flat.Groups)
	}

	// End to end: a stored multi-rank sweep queried through the engine
	// with the figrank preset splits by rank because the stored geometry
	// names a 4-rank organization.
	fp := "sha256:" + strings.Repeat("4a", 32)
	h := core.SweepHeader{Format: 1, Kind: string(core.KindHCFirst), Fingerprint: fp, Cells: len(recs), Generation: 1}
	var buf bytes.Buffer
	if err := core.EncodeRecords(&buf, h, recs); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.Meta{Fingerprint: fp, Kind: string(core.KindHCFirst), Cells: len(recs), Geometry: "HBM3_16Gb_4R"}, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	figSpec, err := FigureSpec("figrank", fp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(st).Run(figSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceColumnar {
		t.Errorf("figrank source = %q, want %q", res.Source, SourceColumnar)
	}
	var ranks []string
	for _, g := range res.Aggregate.Groups {
		ranks = append(ranks, g.Key[1])
	}
	if len(ranks) != 3 || ranks[0] != "0" || ranks[1] != "1" || ranks[2] != "2" {
		t.Errorf("figrank rank keys = %v", ranks)
	}
}
