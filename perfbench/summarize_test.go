package main

import (
	"bytes"
	"testing"
)

func TestUnionLenOverlapping(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 30}}, 20},          // disjoint
		{[][2]int64{{0, 10}, {5, 15}}, 15},           // partial overlap
		{[][2]int64{{5, 15}, {0, 10}}, 15},           // unsorted input
		{[][2]int64{{0, 30}, {5, 10}, {12, 20}}, 30}, // nested
		{[][2]int64{{0, 10}, {10, 20}}, 20},          // touching
		{[][2]int64{{0, 4}, {2, 8}, {6, 12}, {20, 21}}, 13},
	}
	for _, c := range cases {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Trace: "op/1", ID: 1, Name: "op.serve", Start: 0, End: 100},
		// Two children that overlap on [30, 50): the parent loses 10..70
		// once, not the sum of both durations.
		{Trace: "op/1", ID: 2, Parent: 1, Name: "http.sweeps", Start: 10, End: 50},
		{Trace: "op/1", ID: 3, Parent: 1, Name: "fabric.distribute", Start: 30, End: 70},
		// A grandchild inside child 3.
		{Trace: "op/1", ID: 4, Parent: 3, Name: "fabric.submit", Start: 40, End: 45},
		// A child running past its parent is clipped to the parent.
		{Trace: "op/1", ID: 5, Parent: 4, Name: "serve.sweeps", Start: 44, End: 60},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 40, 2: 40, 3: 35, 4: 4, 5: 16}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}

	sum := Summarize(spans)
	if len(sum.Waterfalls) != 1 {
		t.Fatalf("want one waterfall, got %d", len(sum.Waterfalls))
	}
	wf := sum.Waterfalls[0]
	if wf.Root != "op.serve" || wf.Wall != 100 || wf.Traces != 1 {
		t.Fatalf("waterfall = %+v", wf)
	}
	layers := map[string]int64{}
	for _, r := range wf.Rows {
		layers[r.Layer] = r.Self
	}
	if layers["op"] != 40 || layers["http"] != 40 || layers["fabric"] != 39 || layers["serve"] != 16 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestSpansRoundTripThroughJSONL(t *testing.T) {
	rec := NewRecorder()
	root := rec.Start("op/7", nil, "op.sweep")
	c := root.Child("core.run")
	c.End("cells", 12)
	root.End()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(spans))
	}
	sum := Summarize(spans)
	if n := sum.Names["core.run"]; n == nil || n.Calls != 1 || n.Cells != 12 {
		t.Errorf("core.run stat = %+v", n)
	}
	if spans[0].Parent != spans[1].ID && spans[1].Parent != spans[0].ID {
		t.Errorf("child lost its parent: %+v", spans)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	a := rec.Start("x", nil, "op.x")
	a.Child("core.run").End("cells", 1)
	a.End()
	if a.ID() != 0 || a.Trace() != "" {
		t.Error("nil span reports an identity")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 100}, {12, 100}, {19, 100}, // too few: the maximum
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(append([]float64(nil), xs...), 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(append([]float64(nil), xs...), 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// With 100 samples the tail is p90: ten samples lie above it.
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	l := summarizeLatency(s)
	if l.TailPct != 90 || l.Tail != 90 || l.N != 100 {
		t.Errorf("latency summary = %+v", l)
	}
}
