package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/query"
	"hbmrd/internal/serve"
)

// gen draws a workload's inputs from its seed. Each purpose (run ops,
// set-up sweeps, query specs) gets its own stream, so adding draws to
// one never shifts another.
type gen struct{ *rand.Rand }

func newGen(seed, stream int64) *gen {
	return &gen{rand.New(rand.NewSource(seed*1_000_003 + stream))}
}

// pick returns n distinct ints from [lo, hi), sorted.
func (g *gen) pick(n, lo, hi int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, n)
	for len(out) < n {
		v := lo + g.Intn(hi-lo)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// rows keeps victims clear of the bank edges: hammering needs
// neighbours on both sides.
func (g *gen) rows(n int) []int  { return g.pick(n, 64, hbm.NumRows-64) }
func (g *gen) chips(n int) []int { return g.pick(n, 0, len(core.AllChips())) }
func (g *gen) channels(n int) []int {
	return g.pick(n, 0, hbm.DefaultGeometry().Channels)
}

// shape is one sweep family: a kind at a fixed size, with the chips,
// channels and rows drawn per sweep.
type shape struct {
	kind      core.Kind
	figure    string // query.FigureSpec preset the sweep is read back with
	chips     int
	channels  int
	rows      int
	extraJSON string // further config fields, e.g. `"Trials":3`
}

func (s shape) cells() int {
	n := s.chips * s.channels * s.rows
	if s.kind == core.KindRowPressHC {
		n *= len(core.Fig15TAggONs())
	}
	return n
}

// spec draws one sweep of this shape.
func (s shape) spec(g *gen) serve.SweepSpec {
	cfg := fmt.Sprintf(`{"Channels":%s,"Rows":%s`, ints(g.channels(s.channels)), ints(g.rows(s.rows)))
	if s.extraJSON != "" {
		cfg += "," + s.extraJSON
	}
	cfg += "}"
	return serve.SweepSpec{Kind: string(s.kind), Chips: g.chips(s.chips), IdentityMapping: true,
		Config: json.RawMessage(cfg)}
}

func ints(xs []int) string {
	b, _ := json.Marshal(xs)
	return string(b)
}

// specKey identifies a sweep spec without resolving it: equal keys mean
// equal fingerprints.
func specKey(s serve.SweepSpec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// freshSpec draws specs of a shape until one is new to seen.
func freshSpec(g *gen, s shape, seen map[string]bool) serve.SweepSpec {
	for {
		sp := s.spec(g)
		if k := specKey(sp); !seen[k] {
			seen[k] = true
			return sp
		}
	}
}

// querySpec draws a novel aggregation over a stored sweep of the given
// kind from the query package's own vocabulary: zero to two group-by
// dimensions, one metric, an optional filter and one to three reducers.
// Grouping by row is left out: thousands of one-record groups make a
// rare, heavy answer that would set the tail on its own.
func querySpec(g *gen, kind core.Kind, sweep string) query.Spec {
	dims, metrics := query.Dimensions(kind), query.Metrics(kind)
	s := query.Spec{Sweep: sweep, Metric: metrics[g.Intn(len(metrics))]}
	var groupable []string
	for _, d := range dims {
		if d != "row" {
			groupable = append(groupable, d)
		}
	}
	for _, i := range g.Perm(len(groupable))[:g.Intn(3)] {
		s.GroupBy = append(s.GroupBy, groupable[i])
	}
	if g.Intn(2) == 0 {
		ops := []string{"eq", "ne", "lt", "le", "gt", "ge"}
		d := dims[g.Intn(len(dims))]
		val := fmt.Sprint(g.Intn(8))
		switch d {
		case "found", "wcdp", "measured", "within_window":
			val = fmt.Sprint(g.Intn(2) == 0)
		case "row":
			val = fmt.Sprint(g.Intn(hbm.NumRows))
		}
		s.Where = []query.Cond{{Dim: d, Op: ops[g.Intn(len(ops))], Value: val}}
	}
	reducers := []string{"count", "mean", "stddev", "cv", "min", "max", "median", "percentiles", "histogram", "box"}
	for _, i := range g.Perm(len(reducers))[:1+g.Intn(3)] {
		switch r := reducers[i]; r {
		case "percentiles":
			s.Percentiles = []float64{float64(1 + g.Intn(49)), float64(50 + g.Intn(50))}
			s.Reducers = append(s.Reducers, r)
		case "histogram":
			lo := float64(g.Intn(4))
			s.Edges = []float64{lo, lo + 1 + float64(g.Intn(100)), lo + 200 + float64(g.Intn(100_000))}
			s.Reducers = append(s.Reducers, r)
		default:
			s.Reducers = append(s.Reducers, r)
		}
	}
	return s
}

// freshQuery draws query specs until one is new to seen.
func freshQuery(g *gen, kind core.Kind, sweep string, seen map[string]bool) query.Spec {
	for {
		s := querySpec(g, kind, sweep)
		cj, err := s.CanonicalJSON()
		if err != nil {
			continue
		}
		if !seen[string(cj)] {
			seen[string(cj)] = true
			return s
		}
	}
}
