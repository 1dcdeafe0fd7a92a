// Command perfbench is the repository benchmark: four seeded workloads
// driven in-process through hbmrd's public entry points (serve.Resolve,
// (*serve.Sweep).Run, (*store.Store).PutFile, (*query.Engine).Run,
// (*serve.Server).Handler over loopback HTTP, and the fabric coordinator
// plugged into serve.Config.Distribute), with output checks on every run.
//
//	perfbench --workload sweep|query|serve|fabric --seed N --seconds S --trace 0|1
//	perfbench --summarize trace.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

var workloads = map[string]func(*env) error{
	"sweep":  runSweepWorkload,
	"query":  runQueryWorkload,
	"serve":  runServeWorkload,
	"fabric": runFabricWorkload,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "sweep, query, serve or fabric")
	seed := flag.Int64("seed", 1, "input seed (1 is the default seed, 7 the held-out one)")
	seconds := flag.Int("seconds", 10, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for stores, spools, traces and profiles")
	summarize := flag.String("summarize", "", "print the waterfall of a span JSONL file and exit")
	flag.Parse()

	if *summarize != "" {
		sum, err := summarizeFile(*summarize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sum.Print(os.Stdout)
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", sortedKeys(workloads))
		return 2
	}

	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%s-%d", *workload, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		dir: dir, res: newResults()}
	if *trace == 1 {
		e.rec = NewRecorder()
	}
	fmt.Printf("perfbench: workload %s, seed %d, %ds, trace %d\n", *workload, *seed, *seconds, *trace)
	rep := report{Correct: true, Metrics: map[string]metric{}}
	if err := runWorkload(e); err != nil {
		fmt.Printf("perfbench: workload error: %v\n", err)
		rep.Correct = false
	}
	r := e.res
	rep.Attempted = max(1, r.attempted)
	rep.Failed = len(r.failedOps)
	r.printFailures(os.Stdout)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	digest, err := r.digest()
	if err != nil {
		fmt.Println("digest:", err)
		rep.Correct = false
	} else {
		fmt.Printf("output digest %s over ops [0, %d)\n", digest, r.digestOps)
	}
	fmt.Printf("op_fail_ratio %.4f ratio (%d of %d ops)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)

	if *trace == 0 {
		rep.Metrics = endToEnd(r)
	} else {
		tracePath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		m, err := perLayer(e, tracePath)
		if err != nil {
			fmt.Println("perfbench: per-layer:", err)
			rep.Correct = false
		}
		rep.Metrics = m
		fmt.Printf("spans written to %s (summarize with --summarize)\n", tracePath)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("perfbench: metric %s was not measured\n", name)
			rep.Correct = false
			m.Value = 0
			rep.Metrics[name] = m
		}
		fmt.Printf("  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// endToEnd assembles the metrics a user of the system sees.
func endToEnd(r *results) map[string]metric {
	sw, cold, hit := summarizeLatency(r.sweepMS), summarizeLatency(r.coldMS), summarizeLatency(r.hitMS)
	for _, l := range []struct {
		name string
		l    latency
	}{{"sweep_ms", sw}, {"query_cold_ms", cold}, {"query_hit_ms", hit}} {
		fmt.Printf("%s: p50 %.3f, tail p%g %.3f over %d samples (p75 %.3f p90 %.3f p95 %.3f p99 %.3f)\n",
			l.name, l.l.P50, l.l.TailPct, l.l.Tail, l.l.N, l.l.pct(75), l.l.pct(90), l.l.pct(95), l.l.pct(99))
	}
	return map[string]metric{
		"setup_s":                {median(r.setupS), "s"},
		"sweep_ms_p50":           {sw.P50, "ms"},
		"sweep_ms_tail":          {sw.Tail, "ms"},
		"cells_per_s":            {float64(r.cells) / r.cellsWall.Seconds(), "1/s"},
		"query_cold_ms_p50":      {cold.P50, "ms"},
		"query_cold_ms_tail":     {cold.Tail, "ms"},
		"query_hit_ms_p50":       {hit.P50, "ms"},
		"query_hit_ms_tail":      {hit.Tail, "ms"},
		"rss_peak_mb":            {peakRSSMiB(), "MiB"},
		"store_bytes_per_record": {float64(r.storeBytes) / float64(r.storeRecords), "B"},
	}
}

// traceOverheadPct is what tracing added to the measured ops, as a share
// of their wall time: the spans they recorded times the measured cost of
// recording one, plus the time spent reading MemStats for allocation
// counts. Probe traces (after the measured window) are not counted.
func traceOverheadPct(sum Summary, memStats time.Duration) float64 {
	var spans int
	var wall int64
	for _, wf := range sum.Waterfalls {
		if layerOf(wf.Root) != "op" {
			continue
		}
		wall += wf.Wall
		for _, r := range wf.Rows {
			spans += r.Calls
		}
	}
	if wall == 0 {
		return 0
	}
	cost := float64(spans)*spanCostNS() + float64(memStats.Nanoseconds())
	return 100 * cost / float64(wall)
}

// spanCostNS times recording one span with two attributes.
func spanCostNS() float64 {
	const n = 20000
	rec := NewRecorder()
	root := rec.Start("cost/0", nil, "op.cost")
	start := time.Now()
	for i := 0; i < n; i++ {
		root.Child("core.run").End("cells", i, "source", "cache")
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// perLayer writes the traced run's spans, summarizes them, and derives
// every per-layer metric. A layer the workload never calls reports 0.
func perLayer(e *env, tracePath string) (map[string]metric, error) {
	r := e.res
	m := map[string]metric{}
	sum, err := writeTrace(e.rec, tracePath)
	if err != nil {
		return m, err
	}
	sum.Print(os.Stdout)
	ms := func(name string) metric { return metric{sum.Names[name].MeanMS(), "ms"} }

	run := sum.Names["core.run"]
	m["core.run_ms"] = ms("core.run")
	m["core.us_per_cell"] = metric{0, "us"}
	if run != nil && run.Cells > 0 {
		m["core.us_per_cell"] = metric{float64(run.Total) / float64(run.Cells) / 1e3, "us"}
	}
	m["core.allocs_per_cell"] = metric{0, "count"}
	m["core.alloc_bytes_per_cell"] = metric{0, "B"}
	if a := r.alloc; a.cells > 0 {
		m["core.allocs_per_cell"] = metric{float64(a.mallocs) / float64(a.cells), "count"}
		m["core.alloc_bytes_per_cell"] = metric{float64(a.bytes) / float64(a.cells), "B"}
	}

	shares, perr := cpuShares(e.profilePath())
	if perr != nil {
		err = fmt.Errorf("cpu profile: %w", perr)
	}
	for _, l := range append(append([]string(nil), cpuLayers...), "runtime") {
		m[l+".cpu_share"] = metric{shares[l], "ratio"}
	}
	if shares != nil {
		fmt.Printf("cpu shares: %s\n", compactJSON(shares))
	}

	ns, res, terr := telemetryNsPerCell(e.seed)
	if terr != nil && err == nil {
		err = fmt.Errorf("telemetry cost: %w", terr)
	}
	fmt.Printf("telemetry.ns_per_cell %.0f, resolution +-%.0f ns\n", ns, res)
	m["telemetry.ns_per_cell"] = metric{ns, "ns"}

	for _, name := range []string{"serve.resolve", "store.put", "store.get_columnar", "store.get_derived",
		"core.decode_columnar", "query.compute", "query.run_cold", "query.run_hit", "fabric.distribute"} {
		m[name+"_ms"] = ms(name)
	}
	m["serve.http_overhead_ms"] = metric{0, "ms"}
	if len(r.httpHitReqMS) > 0 && sum.Names["query.run_hit"] != nil {
		m["serve.http_overhead_ms"] = metric{median(r.httpHitReqMS) - sum.Names["query.run_hit"].MeanMS(), "ms"}
	}
	m["fabric.coord_ms_per_shard"] = metric{0, "ms"}
	if d := sum.Names["fabric.distribute"]; d != nil && run != nil && r.shardsPerSweep > 0 {
		m["fabric.coord_ms_per_shard"] = metric{(d.MeanMS() - run.MeanMS()) / r.shardsPerSweep, "ms"}
	}

	units := map[string]string{
		"serve.queue_wait_ms": "ms", "serve.dedup_ratio": "ratio",
		"serve.requests_failed.sweeps": "count", "serve.requests_failed.sweeps_fp": "count",
		"serve.requests_failed.query": "count", "query.hit_ratio": "ratio", "query.jsonl_ratio": "ratio",
		"fabric.requests_per_shard.submit": "count", "fabric.requests_per_shard.status": "count",
		"fabric.requests_per_shard.stream": "count", "fabric.requests_per_shard.healthz": "count",
		"fabric.retries": "count",
	}
	for name, unit := range units {
		m[name] = metric{r.layer[name], unit}
	}
	m["loadgen.late_ms_max"] = metric{float64(r.lateMax.Nanoseconds()) / 1e6, "ms"}
	m["trace.overhead_pct"] = metric{traceOverheadPct(sum, r.memStatsTime), "%"}
	return m, err
}
