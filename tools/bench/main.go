// Command bench runs the repository's hot-path benchmarks and appends the
// results to a dated JSON file (BENCH_<date>.json by default), so the
// performance trajectory of the simulator survives across PRs: each entry
// records op time, allocs/op, and every custom metric a benchmark reports
// (headline figures like minHCfirst or flips/op).
//
// Usage:
//
//	go run ./tools/bench                      # default benchmark set
//	go run ./tools/bench -label after-opt     # tag the data point
//	go run ./tools/bench -bench 'FlipMask' -benchtime 2s
//	go run ./tools/bench -check               # regression tripwire (CI)
//
// -check compares the fresh results against the newest committed
// BENCH_*.json instead of recording them, and fails only on
// order-of-magnitude regressions (> -factor, default 3x, per benchmark).
// The wide margin makes it a tripwire for accidentally disabling a fast
// path, not a flaky micro-perf gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the kernels that bound sweep throughput (the
// wordline FlipMask and the bitline ColFlipMask), one end-to-end figure
// benchmark, the query read path (a cold miss over the stored columnar
// twin and one that first rebuilds a deleted twin from the JSONL, plus
// the columnar artifact decode, full and projected, and encode), the
// distributed fabric (shard-stream merge, 2-worker-vs-local sweep
// throughput, and the coordinator control-plane overhead), and the
// telemetry overhead pair (enabled-vs-disabled on the fault-model kernel
// and the engine cell loop; allocs/op must stay 0).
const defaultBench = "FlipMaskHot|FlipMaskRetention|FlipMaskFirstTouch|ColFlipMask|CalibFirstTouch|TrialJitter|Fig5HCFirstAcrossChips|RowInitReadHotPath|HammerReadHotPath|HammerThroughput|SweepJobsScaling|StrictTimingRowOps|QueryFig5ColdMiss|ColumnarDecode|ColumnarEncode|ShardMerge|FabricSweep|FabricOverhead|TelemetryOverhead"

// Result is one benchmark data point.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one invocation of the benchmark suite.
type Run struct {
	Date       string   `json:"date"`
	Label      string   `json:"label,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version"`
	Bench      string   `json:"bench"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		bench     = flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "1s", "value for go test -benchtime")
		label     = flag.String("label", "", "label stored with this data point")
		out       = flag.String("out", "", "output file (default BENCH_<date>.json)")
		pkgs      = flag.String("pkgs", "./...", "packages to benchmark")
		check     = flag.Bool("check", false, "compare against the newest committed BENCH_*.json and fail on >factor regressions instead of recording")
		against   = flag.String("against", "", "baseline file for -check (default: newest BENCH_*.json)")
		factor    = flag.Float64("factor", 3, "ns/op regression factor that fails -check")
	)
	flag.Parse()

	date := time.Now().Format("2006-01-02")
	path := *out
	if path == "" {
		path = "BENCH_" + date + ".json"
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-benchtime", *benchtime, *pkgs}
	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: go test failed:", err)
		os.Exit(1)
	}
	os.Stdout.Write(buf.Bytes())

	results := parse(&buf)
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmark results parsed")
		os.Exit(1)
	}

	if *check {
		if err := checkRegressions(results, *against, *factor); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	run := Run{
		Date:       date,
		Label:      *label,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Benchmarks: results,
	}

	// Append to any runs already recorded for the day, so before/after
	// pairs land in one file.
	var runs []Run
	if prev, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(prev, &runs)
	}
	runs = append(runs, run)
	enc, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(results), path)
}

// parse extracts benchmark lines of the form
//
//	BenchmarkName-8   123  456.7 ns/op  8 B/op  1 allocs/op  2.5 flips/op
func parse(buf *bytes.Buffer) []Result {
	var results []Result
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{
			Name:       strings.TrimSuffix(fields[0], fmt.Sprintf("-%d", runtime.NumCPU())),
			Iterations: iters,
		}
		if i := strings.LastIndex(r.Name, "-"); i > 0 {
			// Strip any -N GOMAXPROCS suffix runtime.NumCPU didn't match.
			if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				r.Name = r.Name[:i]
			}
		}
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BytesPerOp = val
			case "allocs/op":
				r.AllocsPerOp = val
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = val
			}
		}
		results = append(results, r)
	}
	return results
}

// checkRegressions compares fresh results against the latest run recorded
// in the baseline file. Only benchmarks present in both are compared, on
// ns/op alone; a fresh value more than factor times the baseline fails.
// Renamed or new benchmarks never fail the check - the tripwire guards
// committed trajectories, not coverage.
func checkRegressions(fresh []Result, baselinePath string, factor float64) error {
	if baselinePath == "" {
		var err error
		baselinePath, err = newestBenchFile()
		if err != nil {
			return err
		}
	}
	b, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var runs []Run
	if err := json.Unmarshal(b, &runs); err != nil || len(runs) == 0 {
		return fmt.Errorf("baseline %s holds no runs (%v)", baselinePath, err)
	}
	base := map[string]Result{}
	for _, r := range runs[len(runs)-1].Benchmarks {
		base[r.Name] = r
	}

	compared, failures := 0, 0
	for _, r := range fresh {
		old, ok := base[r.Name]
		if !ok || old.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := r.NsPerOp / old.NsPerOp
		status := "ok"
		if ratio > factor {
			status = "REGRESSION"
			failures++
		}
		fmt.Fprintf(os.Stderr, "bench: %-60s %12.1f -> %12.1f ns/op (%5.2fx) %s\n",
			r.Name, old.NsPerOp, r.NsPerOp, ratio, status)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks in common with baseline %s", baselinePath)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed more than %.1fx vs %s", failures, compared, factor, baselinePath)
	}
	fmt.Fprintf(os.Stderr, "bench: %d benchmarks within %.1fx of %s\n", compared, factor, baselinePath)
	return nil
}

// newestBenchFile finds the lexically newest committed BENCH_<date>.json
// (the dates are ISO, so lexical order is chronological).
func newestBenchFile() (string, error) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baseline found (run make bench first)")
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// gitCommit returns the short HEAD commit, suffixed "-dirty" when tracked
// files differ from it, so a point recorded on an uncommitted tree is not
// filed under its parent commit.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		commit += "-dirty"
	}
	return commit
}
