// Command querysmoke is the CI gate for the query subsystem: it runs a
// tiny deterministic BER sweep into a temporary store, executes one query
// per aggregation reducer, and diffs the combined canonical output
// (aggregate JSON plus CSV per query, and a derived-cache hit check)
// against the committed golden at tools/querysmoke/testdata/smoke.golden.
//
// The golden pins the whole path from fault-model bytes to aggregate
// bytes, so it re-pins for the same reasons the golden sweep digests do
// (deliberate fault-model changes, with a core.CodeGeneration bump) or
// when the aggregate format changes (a query.FormatGeneration bump).
// Re-pin with:
//
//	go run ./tools/querysmoke -update
//
// Run `make query-smoke` locally; CI runs it on every push.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hbmrd"
)

func main() {
	update := flag.Bool("update", false, "re-pin the golden instead of diffing against it")
	golden := flag.String("golden", "tools/querysmoke/testdata/smoke.golden", "golden file path (relative to the repo root)")
	flag.Parse()
	if err := run(*update, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "querysmoke:", err)
		os.Exit(1)
	}
}

// smokeQueries enumerates one query per reducer over the smoke sweep.
func smokeQueries(fp string) []hbmrd.QuerySpec {
	base := func(reducers ...string) hbmrd.QuerySpec {
		return hbmrd.QuerySpec{
			Sweep:    fp,
			GroupBy:  []string{"channel"},
			Metric:   "ber_percent",
			Where:    []hbmrd.QueryCond{{Dim: "wcdp", Value: "false"}},
			Reducers: reducers,
		}
	}
	specs := []hbmrd.QuerySpec{
		base("count"),
		base("mean"),
		base("stddev"),
		base("cv"),
		base("min"),
		base("max"),
		base("median"),
	}
	p := base("percentiles")
	p.Percentiles = []float64{25, 50, 75}
	specs = append(specs, p)
	h := base("histogram")
	h.Edges = []float64{0, 0.1, 0.5, 1, 5}
	specs = append(specs, h)
	specs = append(specs, base("box"))
	return specs
}

// runStored executes one sweep through the -out flow (a fresh fleet per
// sweep, exactly as the CLI runs them) and ingests it into the store.
func runStored(dir string, st *hbmrd.SweepStore, name string, run func(fleet []*hbmrd.TestChip, sink hbmrd.Sink) error) (hbmrd.SweepStoreMeta, error) {
	fleet, err := hbmrd.NewFleet([]int{0}, hbmrd.WithIdentityMapping())
	if err != nil {
		return hbmrd.SweepStoreMeta{}, err
	}
	outPath := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(outPath)
	if err != nil {
		return hbmrd.SweepStoreMeta{}, err
	}
	sink := hbmrd.NewJSONLFileSink(f)
	err = run(fleet, sink)
	if err == nil {
		err = sink.Err()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return hbmrd.SweepStoreMeta{}, err
	}
	return hbmrd.IngestSweep(st, outPath)
}

func run(update bool, goldenPath string) error {
	dir, err := os.MkdirTemp("", "querysmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	st, err := hbmrd.OpenSweepStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}

	// A tiny deterministic sweep through the -out flow.
	meta, err := runStored(dir, st, "ber", func(fleet []*hbmrd.TestChip, sink hbmrd.Sink) error {
		_, err := hbmrd.RunBERContext(ctx, fleet, hbmrd.BERConfig{
			Channels:    []int{0, 1},
			Rows:        hbmrd.SampleRows(2),
			Patterns:    []hbmrd.Pattern{hbmrd.Rowstripe0, hbmrd.Checkered0},
			HammerCount: 100_000,
			Reps:        1,
		}, hbmrd.WithSink(sink))
		return err
	})
	if err != nil {
		return err
	}

	var out bytes.Buffer
	var served [][]byte
	eng := hbmrd.NewQueryEngine(st)
	specs := smokeQueries(meta.Fingerprint)
	for _, spec := range specs {
		res, err := eng.Run(spec)
		if err != nil {
			return fmt.Errorf("reducer %v: %w", spec.Reducers, err)
		}
		fmt.Fprintf(&out, "==== reducer %s ====\n", strings.Join(spec.Reducers, ","))
		out.Write(res.JSON)
		out.WriteString(res.Aggregate.CSV())
		served = append(served, res.JSON)
	}

	// The post-legacy sweep kinds: one tiny sweep each through the same
	// -out flow, queried through their figure presets. Their specs join
	// the cold recompute checks below.
	vrdMeta, err := runStored(dir, st, "vrd", func(fleet []*hbmrd.TestChip, sink hbmrd.Sink) error {
		_, err := hbmrd.RunVRDContext(ctx, fleet, hbmrd.VRDConfig{
			Rows: hbmrd.SampleRows(2), Trials: 3,
		}, hbmrd.WithSink(sink))
		return err
	})
	if err != nil {
		return err
	}
	colMeta, err := runStored(dir, st, "coldist", func(fleet []*hbmrd.TestChip, sink hbmrd.Sink) error {
		_, err := hbmrd.RunColDisturbContext(ctx, fleet, hbmrd.ColDisturbConfig{
			AggRows: hbmrd.SampleRows(2)[:1], Distances: []int{1, 3}, Stripes: []int{1, 2},
			Reads: 8_000, MaxReads: 1 << 17,
		}, hbmrd.WithSink(sink))
		return err
	})
	if err != nil {
		return err
	}
	for _, fig := range []struct{ name, fp string }{
		{"figvrd", vrdMeta.Fingerprint},
		{"figcoldist", colMeta.Fingerprint},
	} {
		spec, err := hbmrd.QueryFigureSpec(fig.name, fig.fp)
		if err != nil {
			return err
		}
		res, err := eng.Run(spec)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.name, err)
		}
		fmt.Fprintf(&out, "==== figure %s ====\n", fig.name)
		out.Write(res.JSON)
		out.WriteString(res.Aggregate.CSV())
		specs = append(specs, spec)
		served = append(served, res.JSON)
	}
	// A cold recompute of every golden query must equal the bytes it was
	// served, first over the stored columnar twins, then over twins the
	// engine rebuilds from the JSONL of record once all three are gone.
	fps := []string{meta.Fingerprint, vrdMeta.Fingerprint, colMeta.Fingerprint}
	for _, twins := range []string{"stored", "rebuilt"} {
		if twins == "rebuilt" {
			for _, fp := range fps {
				if err := st.DropColumnar(fp); err != nil {
					return err
				}
			}
		}
		for i, spec := range specs {
			cold, err := eng.RunCold(spec)
			if err != nil {
				return fmt.Errorf("cold recompute %v over %s twins: %w", spec.Reducers, twins, err)
			}
			if !bytes.Equal(cold.JSON, served[i]) {
				return fmt.Errorf("reducer %v: cold recompute over %s twins disagrees with the served bytes:\n  cold:   %s\n  served: %s",
					spec.Reducers, twins, cold.JSON, served[i])
			}
		}
	}
	fmt.Fprintf(&out, "==== paths ====\ncold recompute equals served bytes across %d queries, over stored and rebuilt twins\n", len(specs))

	// The derived cache must answer a repeated spec without re-reading
	// the raw records.
	before := eng.RawReads()
	again, err := eng.Run(specs[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(&out, "==== cache ====\nrepeat hit=%v raw-reads-moved=%v\n",
		again.CacheHit, eng.RawReads() != before)

	// The sweep fingerprint inside the output already pins config and
	// geometry; the golden therefore also catches accidental fingerprint
	// drift.
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("querysmoke: pinned %d bytes to %s\n", out.Len(), goldenPath)
		return nil
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%w (run `go run ./tools/querysmoke -update` to pin it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines := strings.Split(out.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				return fmt.Errorf("output diverges from %s at line %d:\n  got:  %s\n  want: %s\n"+
					"(deliberate change? re-pin with `go run ./tools/querysmoke -update` and explain in the commit)",
					goldenPath, i+1, g, w)
			}
		}
		return fmt.Errorf("output diverges from %s", goldenPath)
	}
	fmt.Printf("querysmoke: %d queries matched %s\n", len(specs), goldenPath)
	return nil
}
