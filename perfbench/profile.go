package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/serve"
	"hbmrd/internal/telemetry"
)

// cpuLayers are the packages a traced run splits CPU samples over; the
// engine's device and fault-model work (hbm, disturb) runs inside calls
// the harness cannot wrap, so a profile is the only way to see it.
var cpuLayers = []string{"serve", "core", "hbm", "disturb", "store", "query", "fabric", "telemetry"}

// startProfile starts a CPU profile of the measured window in a traced
// run and returns the function that stops it. Untraced runs get a no-op.
func (e *env) startProfile() func() {
	if e.rec == nil {
		return func() {}
	}
	f, err := os.Create(e.profilePath())
	if err != nil {
		e.res.notes = append(e.res.notes, "cpu profile: "+err.Error())
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		e.res.notes = append(e.res.notes, "cpu profile: "+err.Error())
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

func (e *env) profilePath() string {
	return filepath.Join(e.dir, "cpu.pprof")
}

// cpuShares splits a CPU profile's flat samples by package, through `go
// tool pprof -top`, into the layers plus "runtime" and "other".
func cpuShares(profile string) (map[string]float64, error) {
	if _, err := os.Stat(profile); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parsePprofTop(&out)
}

// parsePprofTop sums the flat% column of `pprof -top` output by layer.
func parsePprofTop(r io.Reader) (map[string]float64, error) {
	shares := map[string]float64{}
	sc := bufio.NewScanner(r)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[layerOfFunc(f[5])] += pct / 100
	}
	if !inTable {
		return nil, fmt.Errorf("no pprof table in output")
	}
	return shares, sc.Err()
}

// layerOfFunc maps a symbol such as hbmrd/internal/hbm.(*Chip).Hammer to
// its layer.
func layerOfFunc(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if l, ok := strings.CutPrefix(pkg, "hbmrd/internal/"); ok {
		for _, name := range cpuLayers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// telemetryNsPerCell measures what the engine's optional instrumentation
// costs per plan cell: interleaved pairs of runs of one small sweep on
// one engine worker, with telemetry.SetEnabled(false) and (true), the
// order alternating within pairs. The sweep is resolved once and warmed
// up, so its cells skip first-touch calibration and are as cheap as
// real cells get. It returns the median per-pair difference over the
// cell count, and the resolution of that estimate: the interquartile
// range of the per-pair differences per cell over the square root of the
// pair count. It restores the enabled state it found.
func telemetryNsPerCell(seed int64) (ns, resolution float64, err error) {
	g := newGen(seed, 9)
	sh := shape{kind: core.KindBER, chips: 1, channels: 4, rows: 16,
		extraJSON: `"Patterns":["Rowstripe0"],"HammerCount":1000,"Reps":1`}
	sw, err := serve.Resolve(sh.spec(g))
	if err != nil {
		return 0, 0, err
	}
	was := telemetry.Enabled()
	defer telemetry.SetEnabled(was)
	once := func(on bool) (float64, error) {
		telemetry.SetEnabled(on)
		t0 := time.Now()
		err := sw.Run(context.Background(), core.WithJobs(1), core.WithSink(core.NewJSONLSink(io.Discard)))
		return float64(time.Since(t0).Nanoseconds()), err
	}
	for i := 0; i < 5; i++ {
		if _, err := once(was); err != nil {
			return 0, 0, err
		}
	}
	const pairs = 60
	diffs := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		first := i%2 == 0 // the state that runs first in this pair
		a, err := once(first)
		if err != nil {
			return 0, 0, err
		}
		b, err := once(!first)
		if err != nil {
			return 0, 0, err
		}
		if !first {
			a, b = b, a
		}
		diffs = append(diffs, (a-b)/float64(sh.cells()))
	}
	iqr := percentile(diffs, 75) - percentile(diffs, 25)
	return median(diffs), iqr / math.Sqrt(pairs), nil
}

// writeTrace writes the recorder's spans to path and reads them back
// through the summarizer, so the per-layer numbers come from the same
// file an operator would summarize.
func writeTrace(rec *Recorder, path string) (Summary, error) {
	f, err := os.Create(path)
	if err != nil {
		return Summary{}, err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return Summary{}, err
	}
	if err := f.Close(); err != nil {
		return Summary{}, err
	}
	return summarizeFile(path)
}

func summarizeFile(path string) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	spans, err := ReadSpans(f)
	if err != nil {
		return Summary{}, err
	}
	return Summarize(spans), nil
}

// compactJSON is json.Marshal for log lines.
func compactJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
