package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ReadSpans parses a span JSONL file as WriteJSONL produces it.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span line %d: %w", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// unionLen is the total length covered by a set of [start, end)
// intervals, counting overlapped stretches once.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	cur := sorted[0]
	for _, x := range sorted[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that the union of its children covers. Children
// that run concurrently (a stream read beside the sweep it waits on)
// are counted once; a child poking out of its parent is clipped.
func selfTimes(spans []Span) map[int64]int64 {
	children := map[int64][][2]int64{}
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - unionLen(children[s.ID])
	}
	return self
}

// layerOf names the layer a span belongs to: the part of its name before
// the first dot ("core.run" -> "core"). Root operations are named
// "op.<workload>" or "probe.<what>", so their self time - the client's
// own share - shows as layer "op" or "probe".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// NameStat aggregates every span of one name.
type NameStat struct {
	Calls int
	Total int64 // ns
	Self  int64 // ns
	Cells int64 // sum of the "cells" attribute, where spans carry one
}

// MeanMS is the mean span duration in milliseconds (0 with no calls).
func (n *NameStat) MeanMS() float64 {
	if n == nil || n.Calls == 0 {
		return 0
	}
	return float64(n.Total) / float64(n.Calls) / 1e6
}

// LayerRow is one line of a waterfall.
type LayerRow struct {
	Layer       string
	Calls       int
	Total, Self int64 // ns
	Share       float64
}

// Waterfall is the per-layer split of one group of traces: every trace
// whose root span has the same name.
type Waterfall struct {
	Root   string
	Traces int
	Wall   int64 // ns, summed root durations
	Rows   []LayerRow
}

// Summary is everything the per-layer metrics are derived from.
type Summary struct {
	Names      map[string]*NameStat
	Waterfalls []Waterfall
}

// Summarize computes self times and groups them into one waterfall per
// root span name.
func Summarize(spans []Span) Summary {
	self := selfTimes(spans)
	sum := Summary{Names: map[string]*NameStat{}}
	roots := map[string]Span{} // trace -> root
	present := make(map[int64]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	for _, s := range spans {
		ns := sum.Names[s.Name]
		if ns == nil {
			ns = &NameStat{}
			sum.Names[s.Name] = ns
		}
		ns.Calls++
		ns.Total += s.Dur()
		ns.Self += self[s.ID]
		if c, ok := s.Attrs["cells"].(float64); ok { // numbers read back from JSONL
			ns.Cells += int64(c)
		}
		if s.Parent == 0 || !present[s.Parent] {
			roots[s.Trace] = s
		}
	}
	type acc struct {
		wf     Waterfall
		layers map[string]*LayerRow
	}
	groups := map[string]*acc{}
	for _, r := range roots {
		g := groups[r.Name]
		if g == nil {
			g = &acc{wf: Waterfall{Root: r.Name}, layers: map[string]*LayerRow{}}
			groups[r.Name] = g
		}
		g.wf.Traces++
		g.wf.Wall += r.Dur()
	}
	for _, s := range spans {
		r, ok := roots[s.Trace]
		if !ok {
			continue
		}
		g := groups[r.Name]
		l := layerOf(s.Name)
		row := g.layers[l]
		if row == nil {
			row = &LayerRow{Layer: l}
			g.layers[l] = row
		}
		row.Calls++
		row.Total += s.Dur()
		row.Self += self[s.ID]
	}
	for _, g := range groups {
		for _, row := range g.layers {
			if g.wf.Wall > 0 {
				row.Share = float64(row.Self) / float64(g.wf.Wall)
			}
			g.wf.Rows = append(g.wf.Rows, *row)
		}
		sort.Slice(g.wf.Rows, func(i, j int) bool { return g.wf.Rows[i].Self > g.wf.Rows[j].Self })
		sum.Waterfalls = append(sum.Waterfalls, g.wf)
	}
	sort.Slice(sum.Waterfalls, func(i, j int) bool { return sum.Waterfalls[i].Root < sum.Waterfalls[j].Root })
	return sum
}

// Print renders every waterfall as an aligned table.
func (s Summary) Print(w io.Writer) {
	for _, wf := range s.Waterfalls {
		fmt.Fprintf(w, "waterfall %s: %d traces, wall %.1f ms\n", wf.Root, wf.Traces, float64(wf.Wall)/1e6)
		fmt.Fprintf(w, "  %-10s %7s %12s %12s %7s\n", "layer", "calls", "total_ms", "self_ms", "share")
		var accounted int64
		for _, r := range wf.Rows {
			accounted += r.Self
			fmt.Fprintf(w, "  %-10s %7d %12.1f %12.1f %6.1f%%\n", r.Layer, r.Calls,
				float64(r.Total)/1e6, float64(r.Self)/1e6, 100*r.Share)
		}
		if wf.Wall > 0 {
			fmt.Fprintf(w, "  self times sum to %.1f%% of wall\n", 100*float64(accounted)/float64(wf.Wall))
		}
	}
}
