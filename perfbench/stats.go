package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// tailLadder is the set of percentiles a "_tail" metric may report.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest ladder percentile that leaves at
// least ten of n samples beyond it, so a tail is never one or two
// outliers. Below 20 samples no percentile qualifies and the tail is the
// maximum (reported as 100).
func tailPercentile(n int) float64 {
	best := 100.0
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile is the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), p)-1]
}

// median is the middle value of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latency summarizes one latency series: median, tail, and which
// percentile the tail is over how many samples.
type latency struct {
	P50, Tail float64
	TailPct   float64
	N         int
	sorted    []float64
}

func summarizeLatency(xs []float64) latency {
	s := append([]float64(nil), xs...)
	p := tailPercentile(len(s))
	return latency{P50: median(s), Tail: percentile(s, p), TailPct: p, N: len(s), sorted: s}
}

// pct is any percentile of the series, for the text report.
func (l latency) pct(p float64) float64 { return percentile(l.sorted, p) }

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
