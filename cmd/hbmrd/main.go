// Command hbmrd regenerates the paper's tables and figures against the
// simulated chip fleet. Each artifact runs at a reduced "demo" scale by
// default (seconds on a laptop); -full switches to the paper's component
// counts from Table 2 (hours).
//
// Usage:
//
//	hbmrd [-full] [-chips 0,1,...] [-geometry PRESET] [-jobs N] [-progress] [-out results.jsonl] [-shard S:E] <artifact>
//
// -geometry selects a chip organization preset: HBM2_8Gb (the paper's
// part and the default), the legacy HBM2E_16Gb/HBM3_16Gb organizations,
// or any preset of the ported Ramulator2 matrix (HBM2 and HBM2E data-rate
// rows, the twelve JESD238 HBM3 rank variants such as HBM3_16Gb_4R). The
// "geometries" artifact lists them all with their timing columns.
//
// Sweep execution flags: -jobs bounds the worker pool (default
// GOMAXPROCS), -progress reports live sweep progress on stderr, and -out
// streams every experiment record to a JSON Lines file as it is measured
// (a fingerprint header line, then one JSON object per line in
// deterministic plan order, so an interrupted run leaves a valid prefix
// of the full result set). Interrupting with Ctrl-C cancels the in-flight
// sweep promptly; -resume FILE picks a cancelled -out run back up from
// its valid prefix and completes the file byte-identically to an
// uninterrupted run. -shard START:END runs only that contiguous range of
// the sweep's plan cells under the shard's sub-fingerprint - the unit the
// distributed fabric (hbmrdd -peers) dispatches to workers.
//
// Artifacts: geometries table1 table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
// fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 trr retention attack
// defense vrd coldist all. vrd (per-cell HCfirst variability across
// repeated trials, arXiv 2502.13075) and coldist (column-read
// disturbance, arXiv 2510.14750) are the post-paper sweep kinds. -out,
// -resume and -shard take one artifact's sweep, so they reject "all".
//
// A figure artifact with a query preset (fig4 fig5 fig6 fig7 fig9 fig13
// fig14 fig16, and vrd and coldist through figvrd and figcoldist) prints
// that preset's aggregate over the records it measured: exactly the table
// `hbmrd query -figure <preset> -sweep <fp>` prints over its -out file.
//
// The query verb works against a local sweep store instead of running
// experiments: `hbmrd query -ingest FILE` finalizes a completed -out file
// into the store, `hbmrd query` lists the catalog, and `hbmrd query -spec
// JSON` (or -figure fig5 -sweep FP) runs an aggregation - the same specs
// hbmrdd's POST /query accepts, with the same content-addressed caching,
// so the CLI and the service produce byte-identical aggregates.
//
//	hbmrd query [-store DIR] [-ingest FILE]
//	hbmrd query [-store DIR] [-kind KIND]                # list the catalog
//	hbmrd query [-store DIR] -spec JSON [-format table|csv|json]
//	hbmrd query [-store DIR] -figure fig5 -sweep FP [-format ...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hbmrd"
	"hbmrd/internal/core"
	"hbmrd/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The first signal cancels sweeps gracefully; restoring the default
	// handler right after means a second Ctrl-C (or a signal during a
	// non-sweep artifact) terminates the process immediately.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hbmrd:", err)
		os.Exit(1)
	}
}

type runCtx struct {
	full     bool
	chips    []int
	geomSet  bool
	geom     hbmrd.GeometryPreset
	jobs     int
	progress bool
	out      *hbmrd.JSONLFileSink
	resume   *hbmrd.Checkpoint
	shard    *hbmrd.ShardRange
	tracer   *hbmrd.Tracer
	// label is the artifact name, used for progress-sink lines.
	label string
}

func run(ctx context.Context, args []string) error {
	if len(args) > 0 && args[0] == "query" {
		return runQuery(args[1:])
	}
	fs := flag.NewFlagSet("hbmrd", flag.ContinueOnError)
	full := fs.Bool("full", false, "run at the paper's Table 2 scale instead of demo scale")
	chipsFlag := fs.String("chips", "", "comma-separated chip indices (default: the artifact's paper chips)")
	geomFlag := fs.String("geometry", "", "chip geometry preset (default HBM2_8Gb; see the geometries artifact)")
	jobs := fs.Int("jobs", 0, "max concurrent sweep workers (default: GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report live sweep progress on stderr")
	outFlag := fs.String("out", "", "stream experiment records to this JSON Lines file")
	resumeFlag := fs.String("resume", "", "resume a cancelled -out run from this JSON Lines file")
	shardFlag := fs.String("shard", "", "run only plan cells START:END of the artifact's sweep (a distributed-fabric shard)")
	traceFlag := fs.String("trace-out", "", "write sweep-lifecycle spans (plan/cells/finalize) to this JSON Lines file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hbmrd [-full] [-chips 0,1] [-geometry PRESET] [-jobs N] [-progress] [-out FILE | -resume FILE] <artifact>; artifacts: %s", strings.Join(artifactNames(), " "))
	}
	if *resumeFlag != "" && *outFlag != "" {
		return fmt.Errorf("-resume continues an existing file; use it instead of -out, not with it")
	}
	c := runCtx{full: *full, jobs: *jobs, progress: *progress}
	if *geomFlag != "" {
		preset, err := hbmrd.LookupPreset(*geomFlag)
		if err != nil {
			return err
		}
		c.geom = preset
		c.geomSet = true
	}
	if *chipsFlag != "" {
		for _, part := range strings.Split(*chipsFlag, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -chips value %q: %w", part, err)
			}
			c.chips = append(c.chips, idx)
		}
	}
	if *shardFlag != "" {
		start, end, ok := strings.Cut(*shardFlag, ":")
		s, serr := strconv.Atoi(strings.TrimSpace(start))
		e, eerr := strconv.Atoi(strings.TrimSpace(end))
		if !ok || serr != nil || eerr != nil {
			return fmt.Errorf("bad -shard value %q: want START:END plan cell indices", *shardFlag)
		}
		c.shard = &hbmrd.ShardRange{Start: s, End: e}
	}
	// Reject unknown artifacts, and "all" with a results file, before
	// -out truncates an existing results file.
	name := fs.Arg(0)
	if _, known := artifacts()[name]; !known && name != "all" {
		return fmt.Errorf("unknown artifact %q (have: %s)", name, strings.Join(artifactNames(), " "))
	}
	if name == "all" && (*outFlag != "" || *resumeFlag != "" || *shardFlag != "") {
		return fmt.Errorf("-out, -resume and -shard take one artifact's sweep, not \"all\"")
	}

	// closeOut finalizes the -out/-resume stream; encode, sync, and close
	// errors all fail the run (a silently truncated results file must not
	// exit 0).
	closeOut := func() error { return nil }
	outPath := *outFlag
	var outFile *os.File
	switch {
	case *outFlag != "":
		f, err := os.Create(*outFlag)
		if err != nil {
			return err
		}
		outFile = f
	case *resumeFlag != "":
		outPath = *resumeFlag
		f, err := os.OpenFile(*resumeFlag, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		cp, err := hbmrd.ResumeFrom(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("resuming %s: %w", *resumeFlag, err)
		}
		fmt.Fprintf(os.Stderr, "hbmrd: resuming %s sweep from %d checkpointed records\n",
			cp.Header.Kind, cp.Records())
		c.resume = cp
		outFile = f
	}
	if outFile != nil {
		c.out = hbmrd.NewJSONLFileSink(outFile)
		closeOut = func() error {
			err := c.out.Err()
			if serr := outFile.Sync(); err == nil {
				err = serr
			}
			if cerr := outFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("writing %s: %w", outPath, err)
			}
			return nil
		}
	}

	// -trace-out is observability, not results: trace spans are strictly
	// out-of-band of the -out record stream, and a trace write failure
	// warns instead of failing the run.
	closeTrace := func() {}
	if *traceFlag != "" {
		tf, err := os.Create(*traceFlag)
		if err != nil {
			return err
		}
		c.tracer = hbmrd.NewTracer(tf)
		closeTrace = func() {
			err := c.tracer.Err()
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "hbmrd: writing trace %s: %v\n", *traceFlag, err)
			}
		}
	}

	err := runArtifacts(ctx, name, c)
	closeTrace()
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

// runQuery is the `hbmrd query` verb: ingest completed -out files into a
// local sweep store, list its catalog, and run aggregation specs against
// it through the same content-addressed query engine hbmrdd serves.
func runQuery(args []string) error {
	fs := flag.NewFlagSet("hbmrd query", flag.ContinueOnError)
	storeDir := fs.String("store", "hbmrd-store", "sweep store directory")
	ingest := fs.String("ingest", "", "finalize a completed -out JSONL file into the store")
	specJSON := fs.String("spec", "", "aggregation query spec (JSON; see README for the grammar)")
	figure := fs.String("figure", "", "predefined figure spec (fig4 fig5 fig6 fig7 fig9 fig13 fig14 fig15 fig16 figrank figvrd figcoldist); needs -sweep")
	sweep := fs.String("sweep", "", "sweep fingerprint for -figure")
	kind := fs.String("kind", "", "filter the catalog listing by experiment kind")
	format := fs.String("format", "table", "query output format: table, csv, or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: hbmrd query [-store DIR] [-ingest FILE | -spec JSON | -figure FIG -sweep FP] [-format table|csv|json]")
	}
	st, err := hbmrd.OpenSweepStore(*storeDir)
	if err != nil {
		return err
	}

	if *ingest != "" {
		meta, err := hbmrd.IngestSweep(st, *ingest)
		if err != nil {
			return err
		}
		fmt.Printf("ingested %s: %s sweep, %d cells, %d records, %d bytes\n",
			meta.Fingerprint, meta.Kind, meta.Cells, meta.Records, meta.Bytes)
		return nil
	}

	var spec hbmrd.QuerySpec
	switch {
	case *specJSON != "":
		if err := json.Unmarshal([]byte(*specJSON), &spec); err != nil {
			return fmt.Errorf("bad -spec: %w", err)
		}
	case *figure != "":
		if *sweep == "" {
			return fmt.Errorf("-figure needs -sweep FINGERPRINT (run `hbmrd query` to list the catalog)")
		}
		spec, err = hbmrd.QueryFigureSpec(*figure, *sweep)
		if err != nil {
			return err
		}
	default:
		// No query: list the catalog.
		cat, err := hbmrd.NewSweepCatalog(st)
		if err != nil {
			return err
		}
		entries := cat.List()
		if *kind != "" {
			entries = cat.Find(hbmrd.CatalogByKind(*kind))
		}
		if len(entries) == 0 {
			fmt.Printf("store %s holds no finished sweeps\n", *storeDir)
			return nil
		}
		for _, m := range entries {
			line := fmt.Sprintf("%s  %-12s %6d cells %8d records %10d bytes", m.Fingerprint, m.Kind, m.Cells, m.Records, m.Bytes)
			if m.Geometry != "" {
				line += "  " + m.Geometry
			}
			if len(m.Chips) > 0 {
				line += fmt.Sprintf("  chips %v", m.Chips)
			}
			fmt.Println(line)
		}
		return nil
	}

	eng := hbmrd.NewQueryEngine(st)
	res, err := eng.Run(spec)
	if err != nil {
		return err
	}
	if res.CacheHit {
		fmt.Fprintln(os.Stderr, "hbmrd: query served from the derived-result cache")
	}
	switch *format {
	case "json":
		_, err = os.Stdout.Write(res.JSON)
	case "csv":
		_, err = fmt.Print(res.Aggregate.CSV())
	case "table":
		_, err = fmt.Print(hbmrd.RenderAggregate(&res.Aggregate))
	default:
		err = fmt.Errorf("unknown -format %q (have table, csv, json)", *format)
	}
	return err
}

func runArtifacts(ctx context.Context, name string, c runCtx) error {
	if name == "all" {
		for _, a := range artifactNames() {
			if a == "all" {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runOne(ctx, a, c); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(ctx, name, c)
}

func runOne(ctx context.Context, name string, c runCtx) error {
	fn, ok := artifacts()[name]
	if !ok {
		return fmt.Errorf("unknown artifact %q (have: %s)", name, strings.Join(artifactNames(), " "))
	}
	start := time.Now()
	out, err := fn(ctx, c.labelled(name))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, time.Since(start).Seconds(), out)
	return nil
}

type artifactFn func(ctx context.Context, c runCtx) (string, error)

func artifactNames() []string {
	m := artifacts()
	names := make([]string, 0, len(m)+1)
	for n := range m {
		names = append(names, n)
	}
	names = append(names, "all")
	sort.Strings(names)
	return names
}

func (c runCtx) fleet(defaultChips []int) ([]*hbmrd.TestChip, error) {
	chips := c.chips
	if len(chips) == 0 {
		chips = defaultChips
	}
	return hbmrd.NewFleet(chips, c.chipOpts()...)
}

// chipOpts returns the chip-construction options the command-line flags
// imply (currently just the geometry preset).
func (c runCtx) chipOpts() []hbmrd.ChipOption {
	if !c.geomSet {
		return nil
	}
	return []hbmrd.ChipOption{hbmrd.WithGeometry(c.geom)}
}

// labelled stamps the artifact name into the progress sink label.
func (c runCtx) labelled(name string) runCtx {
	c.label = name
	return c
}

// runOpts translates the execution flags into sweep options for one
// runner invocation.
func (c runCtx) runOpts() []hbmrd.RunOption {
	var opts []hbmrd.RunOption
	if c.jobs > 0 {
		opts = append(opts, hbmrd.WithJobs(c.jobs))
	}
	var sinks []hbmrd.Sink
	if c.progress {
		sinks = append(sinks, hbmrd.NewProgressSink(os.Stderr, c.label))
	}
	if c.out != nil {
		sinks = append(sinks, c.out)
	}
	switch len(sinks) {
	case 0:
	case 1:
		opts = append(opts, hbmrd.WithSink(sinks[0]))
	default:
		opts = append(opts, hbmrd.WithSink(hbmrd.MultiSink(sinks...)))
	}
	if c.resume != nil {
		opts = append(opts, hbmrd.WithResume(c.resume))
	}
	if c.shard != nil {
		opts = append(opts, hbmrd.WithShard(*c.shard))
	}
	if c.tracer != nil {
		opts = append(opts, hbmrd.WithTracer(c.tracer))
	}
	return opts
}

func (c runCtx) pick(demo, full int) int {
	if c.full {
		return full
	}
	return demo
}

func artifacts() map[string]artifactFn {
	m := map[string]artifactFn{
		"geometries": func(context.Context, runCtx) (string, error) {
			var b strings.Builder
			fmt.Fprintf(&b, "%-18s %3s %3s %3s %5s %6s %8s %8s %6s %7s %5s  %s\n",
				"preset", "ch", "pc", "rk", "banks", "rows", "rowB", "size",
				"Gbps", "tRC/ns", "ACTs", "description")
			for _, p := range hbmrd.Presets() {
				g := p.Geometry
				rate := "-"
				if p.DataRateMbps > 0 {
					rate = fmt.Sprintf("%.1f", float64(p.DataRateMbps)/1000)
				}
				fmt.Fprintf(&b, "%-18s %3d %3d %3d %5d %6d %8d %7dM %6s %7.1f %5d  %s\n",
					p.Name, g.Channels, g.PseudoChannels, g.NumRanks(), g.Banks, g.Rows,
					g.RowBytes, g.TotalBytes()>>20, rate,
					float64(p.Timing.TRC)/float64(hbmrd.NS),
					p.Timing.ActBudgetPerREFI(), p.Description)
			}
			return b.String(), nil
		},

		"table1": func(context.Context, runCtx) (string, error) { return hbmrd.RenderTable1(), nil },
		"table2": func(context.Context, runCtx) (string, error) { return hbmrd.RenderTable2(), nil },

		"fig3": func(_ context.Context, c runCtx) (string, error) {
			dur := 2.0 * 3600
			if c.full {
				dur = 24 * 3600 // the paper's 24-hour window
			}
			names, traces, err := hbmrd.SimulateTemperatures(dur, 5)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig3(names, traces), nil
		},

		"fig8": func(ctx context.Context, c runCtx) (string, error) {
			fleet, err := c.fleet([]int{0})
			if err != nil {
				return "", err
			}
			recs, err := hbmrd.RunBERContext(ctx, fleet, hbmrd.BERConfig{
				Channels: []int{0, 1, 2},
				Rows:     hbmrd.SampleRowsIn(fleet[0].Chip.Geometry(), c.pick(256, 16384)),
				Reps:     1,
			}, c.runOpts()...)
			if err != nil {
				return "", err
			}
			// Discover the subarray boundary around the first 832/768 seam
			// with single-sided hammering (footnote 4's methodology).
			bounds, err := hbmrd.ScanSubarrayBoundaries(fleet[0], hbmrd.SubarrayScanConfig{
				FromRow: 780, ToRow: 880,
			})
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig8CSV(recs, bounds), nil
		},

		"fig10": func(ctx context.Context, c runCtx) (string, error) {
			fleet, err := c.fleet([]int{2, 3, 4, 5}) // the same-age chips
			if err != nil {
				return "", err
			}
			recs, err := hbmrd.RunAgingContext(ctx, fleet, hbmrd.AgingConfig{
				BER: hbmrd.BERConfig{
					Rows: hbmrd.SampleRowsIn(fleet[0].Chip.Geometry(), c.pick(64, 1024)),
					Reps: 1,
				},
			}, c.runOpts()...)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig10(hbmrd.SummarizeAging(recs)), nil
		},

		"fig11": func(ctx context.Context, c runCtx) (string, error) {
			recs, err := runHCNth(ctx, c)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig11(recs), nil
		},

		"fig12": func(ctx context.Context, c runCtx) (string, error) {
			recs, err := runHCNth(ctx, c)
			if err != nil {
				return "", err
			}
			st, err := hbmrd.ComputeFig12(recs)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig12(st), nil
		},

		"fig15": func(ctx context.Context, c runCtx) (string, error) {
			fleet, err := c.fleet(hbmrd.AllChips())
			if err != nil {
				return "", err
			}
			recs, err := hbmrd.RunRowPressHCContext(ctx, fleet, hbmrd.RowPressHCConfig{
				Channels: channelsN(c.pick(1, 3)),
				Rows:     hbmrd.SampleRowsIn(fleet[0].Chip.Geometry(), c.pick(8, 384)),
			}, c.runOpts()...)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig15(recs), nil
		},

		"fig17": func(ctx context.Context, c runCtx) (string, error) {
			fleet, err := c.fleet([]int{4}) // the paper's Fig 17 is Chip 4
			if err != nil {
				return "", err
			}
			recs, err := hbmrd.RunBERContext(ctx, fleet, hbmrd.BERConfig{
				Channels:     channelsN(c.pick(2, 8)),
				Rows:         hbmrd.SampleRowsIn(fleet[0].Chip.Geometry(), c.pick(96, 16384)),
				Reps:         1,
				CollectMasks: true,
			}, c.runOpts()...)
			if err != nil {
				return "", err
			}
			hists, err := hbmrd.WordFlipHistograms(recs)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderFig17(hists), nil
		},

		"attack": func(_ context.Context, c runCtx) (string, error) {
			budget := 40_000
			target := c.pick(16, 64)
			chipA, err := hbmrd.NewChip(0, append(c.chipOpts(), hbmrd.WithIdentityMapping())...)
			if err != nil {
				return "", err
			}
			rows := hbmrd.SampleRowsIn(chipA.Geometry(), c.pick(96, 256))
			naive, err := hbmrd.RunTemplating(chipA, hbmrd.TemplateConfig{
				Strategy: hbmrd.NaiveScan, TargetFlips: target, HammerBudget: budget, Rows: rows,
			})
			if err != nil {
				return "", err
			}
			chipB, err := hbmrd.NewChip(0, append(c.chipOpts(), hbmrd.WithIdentityMapping())...)
			if err != nil {
				return "", err
			}
			targeted, err := hbmrd.RunTemplating(chipB, hbmrd.TemplateConfig{
				Strategy: hbmrd.ChannelTargeted, TargetFlips: target, HammerBudget: budget, Rows: rows,
			})
			if err != nil {
				return "", err
			}
			return hbmrd.RenderTemplating(naive, targeted), nil
		},

		"defense": func(ctx context.Context, c runCtx) (string, error) {
			fleet, err := c.fleet([]int{4})
			if err != nil {
				return "", err
			}
			recs, err := hbmrd.RunHCFirstContext(ctx, fleet, hbmrd.HCFirstConfig{
				Rows: hbmrd.SampleRowsIn(fleet[0].Chip.Geometry(), c.pick(8, 64)),
				Reps: c.pick(2, 5),
			}, c.runOpts()...)
			if err != nil {
				return "", err
			}
			rep, err := hbmrd.CompareDefense(hbmrd.DefenseRegionsByChannel(recs), hbmrd.DefenseConfig{})
			if err != nil {
				return "", err
			}
			return hbmrd.RenderDefense(rep), nil
		},

		"trr": func(_ context.Context, c runCtx) (string, error) {
			chip, err := hbmrd.NewChip(0, c.chipOpts()...)
			if err != nil {
				return "", err
			}
			f, err := hbmrd.UncoverTRR(chip)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderTRRFindings(f), nil
		},

		"retention": func(_ context.Context, c runCtx) (string, error) {
			// The §6 baselines: the three experiment durations that exceed
			// the 32 ms refresh window (34.8 ms, 1.17 s, 10.53 s).
			chip, err := hbmrd.NewChip(3, c.chipOpts()...)
			if err != nil {
				return "", err
			}
			waits := []hbmrd.TimePS{
				34_800_000_000, 1_170 * hbmrd.MS, 10_530 * hbmrd.MS,
			}
			bers, err := hbmrd.MeasureRetentionBaselines(chip, 0, c.pick(48, 384), waits)
			if err != nil {
				return "", err
			}
			return hbmrd.RenderRetention(waits, bers), nil
		},
	}
	for name, f := range figures {
		m[name] = f.run
	}
	return m
}

// figure is an artifact with a query preset: one sweep of a kind over the
// paper's chips, printed through the preset with report.Figure.
type figure struct {
	kind   core.Kind
	chips  []int
	preset string
	// config returns the sweep's config, at demo or -full scale, for the
	// fleet's geometry.
	config func(g hbmrd.Geometry, c runCtx) any
}

var figures = map[string]figure{
	"fig4": {core.KindBER, hbmrd.AllChips(), "fig4", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.BERConfig{Rows: hbmrd.SampleRowsIn(g, c.pick(48, 16384)), Reps: c.pick(2, 5)}
	}},
	"fig5": {core.KindHCFirst, hbmrd.AllChips(), "fig5", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.HCFirstConfig{
			Rows:    hbmrd.SampleRowsIn(g, c.pick(12, 3072)),
			Pseudos: channelsN(c.pick(1, 2)),
			Reps:    c.pick(2, 5),
		}
	}},
	"fig6": {core.KindBER, hbmrd.AllChips(), "fig6", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.BERConfig{Rows: hbmrd.SampleRowsIn(g, c.pick(32, 16384)), Reps: c.pick(2, 5)}
	}},
	"fig7": {core.KindHCFirst, hbmrd.AllChips(), "fig7", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.HCFirstConfig{Rows: hbmrd.SampleRowsIn(g, c.pick(10, 3072)), Reps: c.pick(2, 5)}
	}},
	// The paper's Fig 9 is Chip 0. Sweep every bank and pseudo channel the
	// chip has (16 banks on the paper's HBM2 part; up to 64 across the
	// ranks of the HBM3 multi-rank parts).
	"fig9": {core.KindBER, []int{0}, "fig9", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.BERConfig{
			Pseudos: channelsN(g.PseudoChannels),
			Banks:   channelsN(g.BanksPerPC()),
			Rows:    hbmrd.RegionRowsIn(g, c.pick(4, 100)),
			Reps:    c.pick(1, 5),
		}
	}},
	"fig13": {core.KindVariability, hbmrd.AllChips(), "fig13", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.VariabilityConfig{Rows: hbmrd.SampleRowsIn(g, c.pick(8, 768)), Iterations: c.pick(20, 50)}
	}},
	"fig14": {core.KindRowPressBER, hbmrd.AllChips(), "fig14", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.RowPressBERConfig{Channels: channelsN(c.pick(2, 8)), Rows: hbmrd.RegionRowsIn(g, c.pick(4, 128))}
	}},
	// Chip 0 is the paper's TRR chip.
	"fig16": {core.KindBypass, []int{0}, "fig16", func(g hbmrd.Geometry, c runCtx) any {
		cfg := hbmrd.BypassConfig{Victims: hbmrd.SampleRowsIn(g, c.pick(4, 32)), AggActs: []int{18, 26, 34}}
		if c.full {
			cfg.AggActs = []int{18, 20, 22, 24, 26, 28, 30, 32, 34}
		} else {
			cfg.Windows = 8205 // one refresh window instead of two
		}
		return cfg
	}},
	"vrd": {core.KindVRD, hbmrd.AllChips(), "figvrd", func(g hbmrd.Geometry, c runCtx) any {
		return hbmrd.VRDConfig{Rows: hbmrd.SampleRowsIn(g, c.pick(6, 768)), Trials: c.pick(5, 20)}
	}},
	"coldist": {core.KindColDisturb, hbmrd.AllChips(), "figcoldist", func(g hbmrd.Geometry, c runCtx) any {
		cfg := hbmrd.ColDisturbConfig{}
		if c.full {
			// More aggressor rows than the default four, clamped so the
			// deepest default distance (8) keeps its victim in range.
			for _, r := range hbmrd.SampleRowsIn(g, 64) {
				if r < 8 {
					r = 8
				}
				if r > g.Rows-9 {
					r = g.Rows - 9
				}
				cfg.AggRows = append(cfg.AggRows, r)
			}
		}
		return cfg
	}},
}

// run measures the figure's sweep and prints its preset over the records,
// under the fingerprint the -out header carries.
func (f figure) run(ctx context.Context, c runCtx) (string, error) {
	fleet, err := c.fleet(f.chips)
	if err != nil {
		return "", err
	}
	cfg := f.config(fleet[0].Chip.Geometry(), c)
	d, err := core.LookupKind(f.kind)
	if err != nil {
		return "", err
	}
	recs, err := d.Run(ctx, fleet, cfg, c.runOpts()...)
	if err != nil {
		return "", err
	}
	fp, err := core.FingerprintFor(f.kind, fleet, cfg)
	if err != nil {
		return "", err
	}
	if c.shard != nil {
		fp = core.ShardFingerprint(fp, c.shard.Start, c.shard.End)
	}
	return report.Figure(f.preset, fp, f.kind, recs)
}

func runHCNth(ctx context.Context, c runCtx) ([]hbmrd.HCNthRecord, error) {
	fleet, err := c.fleet(hbmrd.AllChips())
	if err != nil {
		return nil, err
	}
	cfg := hbmrd.HCNthConfig{
		Rows: hbmrd.RegionRowsIn(fleet[0].Chip.Geometry(), c.pick(3, 32)),
	}
	if !c.full {
		cfg.Patterns = []hbmrd.Pattern{hbmrd.Rowstripe0, hbmrd.Checkered0}
	}
	return hbmrd.RunHCNthContext(ctx, fleet, cfg, c.runOpts()...)
}

func channelsN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
