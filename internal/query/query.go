// Package query is the read side of the sweep store: it decodes stored
// sweeps back into typed records, catalogs what the store holds, and runs
// aggregation pipelines - composable group-by over the sweep's dimensions
// with reducers built on internal/stats - so every paper figure is
// reproducible from stored data without re-executing the experiment.
//
// # Determinism contract
//
// Derived results are content-addressed: the cache key of an aggregate is
// a hash over (FormatGeneration, canonical query spec), and the canonical
// spec embeds the sweep fingerprint - which itself embeds the fault
// model's CodeGeneration. For that key to be honest, everything on the
// path from stored bytes to aggregate bytes must be deterministic:
//
//   - records decode in stream order, which is plan order by the engine's
//     contract, so the rows the pipeline reads have one fixed order;
//   - groups are keyed and sorted by their formatted key values (numeric
//     dimensions compare numerically), never by map iteration order;
//   - reducers come from internal/stats, which is pure over its input
//     slice, and non-finite outputs (a CV at mean zero) are nulled rather
//     than left to vary by encoding;
//   - the aggregate serializes through encoding/json over structs with a
//     fixed field order.
//
// Equal (sweep, spec) pairs therefore produce byte-identical aggregate
// JSON, which is what lets repeated queries be served from the store's
// derived cache without re-reading the raw records. Any change to the
// aggregate's shape or the pipeline's semantics MUST bump
// FormatGeneration so stale cached aggregates stop matching.
//
// # Cold path
//
// On a derived-cache miss the engine reads the store's columnar twin
// (results.hbmc) and feeds its columns, through the accessors each kind's
// fields declare (kindFields), into the single computeOver pipeline
// without materializing records. The decode is projected: it parses only
// the payloads of the columns the spec's metric, group-by and where names
// read, while still framing every column and checking the schema and the
// artifact's length. TestColumnarComputeEquivalence checks that pipeline,
// over the full and the projected decode, against a test-only row-map
// oracle for every figure preset. The twin is derived data: one that does
// not decode or holds another sweep is dropped, a missing or dropped one
// is rebuilt once from the JSONL of record (store.EnsureColumnar) and
// read again, and a twin that cannot be rebuilt fails the query. A
// damaged payload in a column the spec does not read is found by the
// first query that reads that column (and a flipped bit inside a varint
// can decode without error either way). Dimensions derived from the
// sweep's recorded geometry (the rank axis, rank = bank/banksPerRank)
// resolve through Env.
package query

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/stats"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// Env carries geometry-derived context the records themselves do not
// embed. The engine fills it from the stored sweep's preset; callers of
// ComputeColumnar pass it explicitly (the zero Env means single-rank:
// every record lands in rank 0).
type Env struct {
	// BanksPerRank derives the rank dimension from the flat bank address:
	// rank = bank / BanksPerRank (see hbm.Geometry.RankOfBank). Zero or
	// negative disables the split.
	BanksPerRank int
}

func (e Env) rankOf(bank int) int {
	if e.BanksPerRank <= 0 {
		return 0
	}
	return bank / e.BanksPerRank
}

// FormatGeneration versions the aggregate output format and the pipeline
// semantics. It feeds every derived-result cache key; bump it whenever the
// Aggregate shape, a reducer's definition, or a dimension's meaning
// changes, so cached aggregates from the old behaviour stop matching.
const FormatGeneration = 1

// ErrSpec marks a query spec the engine rejects (unknown dimension,
// malformed filter, missing metric, ...). Servers map it to a client
// error; everything else is an execution failure.
var ErrSpec = errors.New("query: invalid spec")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

// Spec is one aggregation query over one stored sweep. The JSON form is
// the wire format of hbmrdd's POST /query and the hbmrd query CLI verb.
type Spec struct {
	// Sweep is the fingerprint of the stored sweep to query.
	Sweep string `json:"sweep"`
	// GroupBy lists the dimensions to group records by, in output column
	// order (see Dimensions for a kind's vocabulary). Empty aggregates
	// everything into one group.
	GroupBy []string `json:"group_by,omitempty"`
	// Metric is the record field the reducers aggregate (see Metrics).
	Metric string `json:"metric"`
	// Where filters records before grouping.
	Where []Cond `json:"where,omitempty"`
	// Reducers names the aggregations to compute (default: count, mean).
	Reducers []string `json:"reducers,omitempty"`
	// Percentiles parameterizes the "percentiles" reducer (0 < p <= 100).
	Percentiles []float64 `json:"percentiles,omitempty"`
	// Edges parameterizes the "histogram" reducer: ascending bin edges.
	Edges []float64 `json:"edges,omitempty"`
}

// Cond is one record filter: dimension (or metric) Dim compared to Value
// under Op. Comparisons are numeric when both sides parse as numbers,
// lexicographic otherwise; booleans compare against "true"/"false".
type Cond struct {
	Dim string `json:"dim"`
	// Op is eq, ne, lt, le, gt or ge (default eq).
	Op    string `json:"op,omitempty"`
	Value string `json:"value"`
}

// reducerNames is the vocabulary of Spec.Reducers, in the canonical
// column order renderers use.
var reducerNames = []string{"count", "mean", "stddev", "cv", "min", "max", "median", "percentiles", "histogram", "box"}

func knownReducer(name string) bool {
	for _, r := range reducerNames {
		if r == name {
			return true
		}
	}
	return false
}

// Canonical normalizes and validates the spec: names are trimmed and
// lowercased, defaults filled (reducers: count+mean; ops: eq), duplicate
// reducers dropped, and unused reducer parameters stripped - so every
// spec that means the same query serializes to the same bytes. The
// canonical JSON of the result is the spec's identity in derived-result
// cache keys.
func (s Spec) Canonical() (Spec, error) {
	c := Spec{Sweep: strings.TrimSpace(s.Sweep)}
	for _, g := range s.GroupBy {
		c.GroupBy = append(c.GroupBy, strings.ToLower(strings.TrimSpace(g)))
	}
	c.Metric = strings.ToLower(strings.TrimSpace(s.Metric))
	if c.Metric == "" {
		return Spec{}, specErr("metric is required")
	}
	for _, w := range s.Where {
		cond := Cond{
			Dim:   strings.ToLower(strings.TrimSpace(w.Dim)),
			Op:    strings.ToLower(strings.TrimSpace(w.Op)),
			Value: strings.TrimSpace(w.Value),
		}
		if cond.Op == "" {
			cond.Op = "eq"
		}
		switch cond.Op {
		case "eq", "ne", "lt", "le", "gt", "ge":
		default:
			return Spec{}, specErr("unknown filter op %q (have eq ne lt le gt ge)", w.Op)
		}
		if cond.Dim == "" {
			return Spec{}, specErr("filter needs a dim")
		}
		c.Where = append(c.Where, cond)
	}
	seen := map[string]bool{}
	for _, r := range s.Reducers {
		name := strings.ToLower(strings.TrimSpace(r))
		if !knownReducer(name) {
			return Spec{}, specErr("unknown reducer %q (have %s)", r, strings.Join(reducerNames, " "))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		c.Reducers = append(c.Reducers, name)
	}
	if len(c.Reducers) == 0 {
		c.Reducers = []string{"count", "mean"}
		seen["count"], seen["mean"] = true, true
	}
	if seen["percentiles"] {
		if len(s.Percentiles) == 0 {
			return Spec{}, specErr("percentiles reducer needs the percentiles list")
		}
		for _, p := range s.Percentiles {
			if p <= 0 || p > 100 {
				return Spec{}, specErr("percentile %v out of (0, 100]", p)
			}
		}
		c.Percentiles = append([]float64(nil), s.Percentiles...)
	}
	if seen["histogram"] {
		if len(s.Edges) < 2 {
			return Spec{}, specErr("histogram reducer needs at least two ascending edges")
		}
		for i := 1; i < len(s.Edges); i++ {
			if s.Edges[i] <= s.Edges[i-1] {
				return Spec{}, specErr("histogram edges must ascend strictly")
			}
		}
		c.Edges = append([]float64(nil), s.Edges...)
	}
	return c, nil
}

// CanonicalJSON returns the canonical spec's serialized identity.
func (s Spec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// DerivedKey is the content address a spec's aggregate is cached under:
// a hash over (FormatGeneration, canonical spec), where the canonical
// spec embeds the sweep fingerprint. Same shape as a sweep fingerprint so
// the store shards it identically.
func DerivedKey(s Spec) (string, error) {
	cj, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	payload := fmt.Sprintf(`{"hbmrd_query":%d,"spec":%s}`, FormatGeneration, cj)
	sum := sha256.Sum256([]byte(payload))
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// dimVal is one dimension value of a record: formatted for grouping and
// output, numeric for ordering and comparisons.
type dimVal struct {
	str   string
	num   float64
	isNum bool
}

func dInt(v int) dimVal { return dimVal{str: strconv.Itoa(v), num: float64(v), isNum: true} }
func dInt64(v int64) dimVal {
	return dimVal{str: strconv.FormatInt(v, 10), num: float64(v), isNum: true}
}
func dBool(v bool) dimVal  { return dimVal{str: strconv.FormatBool(v)} }
func dStr(s string) dimVal { return dimVal{str: s} }

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// rowSource feeds computeOver one record at a time: columnarSource serves
// typed column reads, and the test oracle serves map lookups over
// flattened rows. dim and metric resolve a name to a per-row accessor
// once, so the hot loop does no map lookups by name; a metric accessor's
// second return is false when the record does not carry that metric
// (sparse metrics like hc_first of an HCNth record that never flipped).
type rowSource struct {
	n      int
	dim    func(name string) func(i int) dimVal
	metric func(name string) func(i int) (float64, bool)
}

// fmtNum formats a float the way keys and cells render: integers in full
// decimal (a tAggON of 16 ms is 16000000000 ps, not 1.6e+10), everything
// else in Go's shortest round-trip form.
func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fptr boxes a finite float for an omitempty JSON field; non-finite
// reductions (a CV at mean zero) become null so the aggregate always
// serializes.
func fptr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// PercentileValue is one point of the "percentiles" reducer's output.
type PercentileValue struct {
	P     float64  `json:"p"`
	Value *float64 `json:"value"`
}

// HistogramBin is one bin of the "histogram" reducer's output: count of
// values in [Lo, Hi).
type HistogramBin struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

// BoxSummary is the "box" reducer's output, the five-number summary plus
// mean that the paper's box-and-whisker figures report.
type BoxSummary struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
}

// GroupResult is one group of an aggregate: its key (formatted group-by
// values, aligned with the spec's GroupBy) and the reducer outputs the
// spec asked for.
type GroupResult struct {
	Key         []string          `json:"key,omitempty"`
	Count       int               `json:"count"`
	Mean        *float64          `json:"mean,omitempty"`
	StdDev      *float64          `json:"stddev,omitempty"`
	CV          *float64          `json:"cv,omitempty"`
	Min         *float64          `json:"min,omitempty"`
	Max         *float64          `json:"max,omitempty"`
	Median      *float64          `json:"median,omitempty"`
	Percentiles []PercentileValue `json:"percentiles,omitempty"`
	Histogram   []HistogramBin    `json:"histogram,omitempty"`
	Box         *BoxSummary       `json:"box,omitempty"`
}

// Aggregate is the typed result of one query: the canonical spec it
// answers, provenance (sweep fingerprint, kind, format generation), and
// the reduced groups in deterministic key order. Its canonical JSON form
// is what the derived-result cache stores and what hbmrdd's POST /query
// returns.
type Aggregate struct {
	Format  int           `json:"hbmrd_query"`
	Sweep   string        `json:"sweep"`
	Kind    string        `json:"kind"`
	Spec    Spec          `json:"spec"`
	Records int           `json:"records"`
	Matched int           `json:"matched"`
	Groups  []GroupResult `json:"groups"`
}

// computeOver is the single filter/group/reduce pipeline every row source
// feeds. It pre-resolves every accessor the spec touches - filter
// operands, group-key dimensions, the metric - so the loop below does no
// lookups by name. cspec must already be canonical.
func computeOver(kind core.Kind, src rowSource, cspec Spec) (*Aggregate, error) {
	dims, metrics := Dimensions(kind), Metrics(kind)
	for _, g := range cspec.GroupBy {
		if !hasName(dims, g) {
			return nil, specErr("kind %s has no dimension %q (have %s)", kind, g, strings.Join(dims, " "))
		}
	}
	if !hasName(metrics, cspec.Metric) {
		return nil, specErr("kind %s has no metric %q (have %s)", kind, cspec.Metric, strings.Join(metrics, " "))
	}
	for _, w := range cspec.Where {
		if !hasName(dims, w.Dim) && !hasName(metrics, w.Dim) {
			return nil, specErr("kind %s has no dimension or metric %q to filter on", kind, w.Dim)
		}
	}

	// One filter evaluator per cond: a dimension operand resolves ahead of
	// a metric one (the vocabularies are disjoint per kind), the cond
	// value's numeric form parses once, and comparisons are numeric only
	// when both sides are (matching the row model's match semantics).
	type condEval struct {
		op        string
		value     string
		condNum   float64
		condIsNum bool
		dim       func(i int) dimVal
		met       func(i int) (float64, bool)
	}
	conds := make([]condEval, 0, len(cspec.Where))
	for _, w := range cspec.Where {
		ce := condEval{op: w.Op, value: w.Value}
		if n, err := strconv.ParseFloat(w.Value, 64); err == nil {
			ce.condNum, ce.condIsNum = n, true
		}
		if hasName(dims, w.Dim) {
			ce.dim = src.dim(w.Dim)
		} else {
			ce.met = src.metric(w.Dim)
		}
		conds = append(conds, ce)
	}
	keyGet := make([]func(i int) dimVal, len(cspec.GroupBy))
	for i, g := range cspec.GroupBy {
		keyGet[i] = src.dim(g)
	}
	metGet := src.metric(cspec.Metric)

	type groupAcc struct {
		key  []dimVal
		vals []float64
	}
	groups := map[string]*groupAcc{}
	var order []string
	matched := 0
	// One scratch key and key buffer serve every record; a group's key is
	// copied only when the group is new.
	key := make([]dimVal, len(keyGet))
	var kb []byte
rowLoop:
	for i := 0; i < src.n; i++ {
		for _, ce := range conds {
			var val dimVal
			if ce.dim != nil {
				val = ce.dim(i)
			} else {
				mv, ok := ce.met(i)
				if !ok {
					// A metric this record does not carry filters it out.
					continue rowLoop
				}
				val = dimVal{num: mv, isNum: true}
				if !ce.condIsNum {
					val.str = fmtNum(mv) // only a string compare reads it
				}
			}
			var cmp int
			if ce.condIsNum && val.isNum {
				switch {
				case val.num < ce.condNum:
					cmp = -1
				case val.num > ce.condNum:
					cmp = 1
				}
			} else {
				cmp = strings.Compare(val.str, ce.value)
			}
			var ok bool
			switch ce.op {
			case "eq":
				ok = cmp == 0
			case "ne":
				ok = cmp != 0
			case "lt":
				ok = cmp < 0
			case "le":
				ok = cmp <= 0
			case "gt":
				ok = cmp > 0
			case "ge":
				ok = cmp >= 0
			default:
				return nil, specErr("unknown filter op %q", ce.op)
			}
			if !ok {
				continue rowLoop
			}
		}
		matched++
		mv, ok := metGet(i)
		if !ok {
			continue // sparse metric this record does not carry
		}
		kb = kb[:0]
		for k, get := range keyGet {
			key[k] = get(i)
			kb = append(kb, key[k].str...)
			kb = append(kb, 0x1f)
		}
		acc, ok := groups[string(kb)]
		if !ok {
			ks := string(kb)
			acc = &groupAcc{key: slices.Clone(key)}
			groups[ks] = acc
			order = append(order, ks)
		}
		acc.vals = append(acc.vals, mv)
	}

	// Deterministic group order: element-wise on the key, numerically
	// where the dimension is numeric.
	sort.Slice(order, func(i, j int) bool {
		a, b := groups[order[i]].key, groups[order[j]].key
		for k := range a {
			if a[k].str == b[k].str {
				continue
			}
			if a[k].isNum && b[k].isNum {
				return a[k].num < b[k].num
			}
			return a[k].str < b[k].str
		}
		return false
	})

	agg := &Aggregate{
		Format: FormatGeneration, Sweep: cspec.Sweep, Kind: string(kind), Spec: cspec,
		Records: src.n, Matched: matched,
	}
	for _, ks := range order {
		acc := groups[ks]
		g := GroupResult{Count: len(acc.vals)}
		for _, kv := range acc.key {
			g.Key = append(g.Key, kv.str)
		}
		for _, red := range cspec.Reducers {
			switch red {
			case "count":
				// Count is always present.
			case "mean":
				g.Mean = fptr(stats.Mean(acc.vals))
			case "stddev":
				g.StdDev = fptr(stats.StdDev(acc.vals))
			case "cv":
				g.CV = fptr(stats.CV(acc.vals))
			case "min":
				g.Min = fptr(stats.Min(acc.vals))
			case "max":
				g.Max = fptr(stats.Max(acc.vals))
			case "median":
				g.Median = fptr(stats.Median(acc.vals))
			case "percentiles":
				vals := stats.Percentiles(acc.vals, cspec.Percentiles)
				for i, p := range cspec.Percentiles {
					g.Percentiles = append(g.Percentiles, PercentileValue{P: p, Value: fptr(vals[i])})
				}
			case "histogram":
				counts := stats.Histogram(acc.vals, cspec.Edges)
				for i, n := range counts {
					g.Histogram = append(g.Histogram, HistogramBin{Lo: cspec.Edges[i], Hi: cspec.Edges[i+1], Count: n})
				}
			case "box":
				b := stats.Box(acc.vals)
				g.Box = &BoxSummary{Min: b.Min, Q1: b.Q1, Median: b.Median, Q3: b.Q3, Max: b.Max, Mean: b.Mean}
			}
		}
		agg.Groups = append(agg.Groups, g)
	}
	return agg, nil
}

// Result.Source values: which path produced the aggregate bytes.
const (
	SourceCache    = "cache"    // served from the derived-result cache
	SourceColumnar = "columnar" // computed from the columnar artifact
	// SourceJSONL named the retired JSONL cold path; no query reports it.
	// It stays because perfbench's w_query.go counts answers against it.
	SourceJSONL = "jsonl"
)

// Result is one executed query: the typed aggregate, its canonical JSON
// serialization (byte-identical across repeated runs of the same spec,
// hit or miss), and the path that answered it.
type Result struct {
	Aggregate Aggregate
	JSON      []byte
	CacheHit  bool
	// Source is SourceCache or SourceColumnar.
	Source string
}

// Engine executes query specs against a sweep store, content-addressing
// every aggregate into the store's derived cache keyed on (sweep
// fingerprint, canonical spec): the first run of a spec reduces the
// sweep's columnar twin, every identical run after it is a cache hit that
// never re-reads it. A miss on a sweep whose twin is missing or corrupt
// rebuilds the twin from the JSONL of record first.
type Engine struct {
	Store *store.Store

	// Log, when set, receives operational notes (e.g. a corrupt columnar
	// twin being quarantined). Nil discards them.
	Log *telemetry.Logger

	// Trace, when set, receives one span per Run (cache hit or full
	// compute) keyed by the sweep fingerprint, with the answering source
	// (cache, columnar) as an attribute.
	Trace *telemetry.Tracer

	rawReads atomic.Int64
}

// NewEngine builds a query engine over a store.
func NewEngine(s *store.Store) *Engine { return &Engine{Store: s} }

func (e *Engine) logf(format string, args ...any) {
	e.Log.Warnf(format, args...)
}

// RawReads reports how many times the engine has gone to the stored
// sweep bytes instead of the derived cache. The counter cache-hit tests
// assert does not move.
func (e *Engine) RawReads() int64 { return e.rawReads.Load() }

// envFor derives the query environment from the stored sweep's geometry
// preset: multi-rank organizations expose the rank dimension as
// bank/BanksPerRank. An unknown or absent preset means the zero Env.
func envFor(meta *store.Meta) Env {
	if meta == nil || meta.Geometry == "" {
		return Env{}
	}
	p, err := hbm.LookupPreset(meta.Geometry)
	if err != nil {
		return Env{}
	}
	return Env{BanksPerRank: p.Geometry.Banks}
}

// Run executes one spec: canonicalize, serve from the derived cache when
// the (sweep, spec) key is stored, otherwise aggregate the sweep's
// columnar twin and cache the result.
func (e *Engine) Run(spec Spec) (*Result, error) {
	start := time.Now()
	cspec, err := canonicalQuery(spec)
	if err != nil {
		return nil, err
	}
	key, err := DerivedKey(cspec)
	if err != nil {
		return nil, err
	}
	if b, err := e.Store.GetDerived(key); err == nil {
		var agg Aggregate
		if err := json.Unmarshal(b, &agg); err == nil && agg.Format == FormatGeneration {
			res := &Result{Aggregate: agg, JSON: b, CacheHit: true, Source: SourceCache}
			e.observe(start, cspec, res)
			return res, nil
		}
		// A corrupt or stale cached aggregate falls through to recompute.
	} else if !errors.Is(err, store.ErrNotFound) {
		return nil, err
	}

	res, err := e.cold(cspec)
	if err != nil {
		return nil, err
	}
	// Caching is best-effort, matching the read side's stance on a
	// read-only store: a failed cache write (full disk, read-only mount)
	// costs the next identical query a recompute, never this one its
	// answer.
	_ = e.Store.PutDerived(key, res.JSON)
	e.observe(start, cspec, res)
	return res, nil
}

// RunCold executes one spec against the stored sweep, bypassing the
// derived cache on both read and write. Equivalence checks use it to
// assert that a recomputation equals the served bytes.
func (e *Engine) RunCold(spec Spec) (*Result, error) {
	cspec, err := canonicalQuery(spec)
	if err != nil {
		return nil, err
	}
	return e.cold(cspec)
}

// canonicalQuery canonicalizes a spec the engine can run: one that names
// its sweep.
func canonicalQuery(spec Spec) (Spec, error) {
	cspec, err := spec.Canonical()
	if err == nil && cspec.Sweep == "" {
		err = specErr("sweep fingerprint is required")
	}
	return cspec, err
}

// cold aggregates the stored sweep's columnar twin on a cache miss. A
// twin that does not decode or holds another sweep is dropped; a dropped
// or missing twin is rebuilt once from the JSONL of record and read
// again, and a failed rebuild or retry is the query's error. A rejected
// spec or an unknown sweep returns at once: it would fail on any twin, so
// it never costs a healthy one.
func (e *Engine) cold(cspec Spec) (*Result, error) {
	e.rawReads.Add(1)
	agg, err := e.computeColumnar(cspec)
	if err != nil && !errors.Is(err, ErrSpec) && !errors.Is(err, store.ErrNotFound) {
		if !errors.Is(err, store.ErrNoColumnar) {
			mColumnarDrops.Inc()
			e.logf("query: columnar twin of %s unreadable (%v); dropping and rebuilding it", cspec.Sweep, err)
			if derr := e.Store.DropColumnar(cspec.Sweep); derr != nil {
				e.logf("query: dropping columnar twin of %s: %v", cspec.Sweep, derr)
			}
		}
		if err = e.Store.EnsureColumnar(cspec.Sweep); err == nil {
			agg, err = e.computeColumnar(cspec)
		}
	}
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(agg)
	if err != nil {
		return nil, err
	}
	return &Result{Aggregate: *agg, JSON: append(b, '\n'), Source: SourceColumnar}, nil
}

func (e *Engine) computeColumnar(cspec Spec) (*Aggregate, error) {
	rc, meta, err := e.Store.GetColumnar(cspec.Sweep)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	cols := specColumns(cspec)
	cs, err := core.DecodeColumnarProjected(rc, func(name string) bool { return cols[name] })
	if err != nil {
		return nil, err
	}
	if cs.Header.Fingerprint != cspec.Sweep {
		return nil, fmt.Errorf("query: store object %s holds sweep %s", cspec.Sweep, cs.Header.Fingerprint)
	}
	return ComputeColumnar(cs, cspec, envFor(meta))
}

// Table renders the aggregate as a header row plus one row of formatted
// cells per group: the group-by columns, then "count", then one column
// per scalar reducer output in spec order (percentiles expand to one
// column per p, histograms to one per bin, box to its six numbers).
// Null cells (non-finite reductions) render empty. Both the CSV form and
// internal/report's aligned-table renderer are thin layers over it.
func (a *Aggregate) Table() (header []string, rows [][]string) {
	header = append(header, a.Spec.GroupBy...)
	header = append(header, "count")
	for _, red := range a.Spec.Reducers {
		switch red {
		case "count":
		case "mean", "stddev", "cv", "min", "max", "median":
			header = append(header, red)
		case "percentiles":
			for _, p := range a.Spec.Percentiles {
				header = append(header, "p"+fmtNum(p))
			}
		case "histogram":
			for i := 1; i < len(a.Spec.Edges); i++ {
				header = append(header, fmt.Sprintf("hist[%s,%s)", fmtNum(a.Spec.Edges[i-1]), fmtNum(a.Spec.Edges[i])))
			}
		case "box":
			header = append(header, "box_min", "box_q1", "box_median", "box_q3", "box_max", "box_mean")
		}
	}
	cell := func(v *float64) string {
		if v == nil {
			return ""
		}
		return fmtNum(*v)
	}
	for _, g := range a.Groups {
		r := append([]string(nil), g.Key...)
		r = append(r, strconv.Itoa(g.Count))
		for _, red := range a.Spec.Reducers {
			switch red {
			case "count":
			case "mean":
				r = append(r, cell(g.Mean))
			case "stddev":
				r = append(r, cell(g.StdDev))
			case "cv":
				r = append(r, cell(g.CV))
			case "min":
				r = append(r, cell(g.Min))
			case "max":
				r = append(r, cell(g.Max))
			case "median":
				r = append(r, cell(g.Median))
			case "percentiles":
				for _, pv := range g.Percentiles {
					r = append(r, cell(pv.Value))
				}
			case "histogram":
				for _, hb := range g.Histogram {
					r = append(r, strconv.Itoa(hb.Count))
				}
			case "box":
				if g.Box == nil {
					r = append(r, "", "", "", "", "", "")
				} else {
					r = append(r, fmtNum(g.Box.Min), fmtNum(g.Box.Q1), fmtNum(g.Box.Median),
						fmtNum(g.Box.Q3), fmtNum(g.Box.Max), fmtNum(g.Box.Mean))
				}
			}
		}
		rows = append(rows, r)
	}
	return header, rows
}

// CSV renders the aggregate's table form as comma-separated lines.
func (a *Aggregate) CSV() string {
	header, rows := a.Table()
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteByte('\n')
	for _, r := range rows {
		sb.WriteString(strings.Join(r, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FigureSpec returns the predefined query spec that reproduces one of the
// paper's figure aggregations from a stored sweep of the matching kind.
func FigureSpec(fig, sweep string) (Spec, error) {
	s := Spec{Sweep: sweep}
	switch strings.ToLower(strings.TrimSpace(fig)) {
	case "fig4": // BER distribution per chip and pattern (kind ber)
		s.GroupBy = []string{"chip", "pattern_label"}
		s.Metric = "ber_percent"
		s.Reducers = []string{"box"}
	case "fig5": // HCfirst distribution per chip and pattern (kind hcfirst)
		s.GroupBy = []string{"chip", "pattern_label"}
		s.Metric = "hcfirst"
		s.Where = []Cond{{Dim: "found", Value: "true"}}
		s.Reducers = []string{"box"}
	case "fig6": // BER across channels within each chip (kind ber)
		s.GroupBy = []string{"chip", "channel"}
		s.Metric = "ber_percent"
		s.Where = []Cond{{Dim: "wcdp", Value: "true"}}
		s.Reducers = []string{"count", "mean", "min", "max"}
	case "fig7": // HCfirst across channels within each chip (kind hcfirst)
		s.GroupBy = []string{"chip", "channel"}
		s.Metric = "hcfirst"
		s.Where = []Cond{{Dim: "wcdp", Value: "true"}, {Dim: "found", Value: "true"}}
		s.Reducers = []string{"box"}
	case "fig9": // BER across pseudo channels and banks (kind ber)
		s.GroupBy = []string{"pseudo", "bank"}
		s.Metric = "ber_percent"
		s.Where = []Cond{{Dim: "wcdp", Value: "true"}}
		s.Reducers = []string{"count", "mean"}
	case "fig13": // HCfirst variability ratio per chip (kind variability)
		s.GroupBy = []string{"chip"}
		s.Metric = "ratio"
		s.Where = []Cond{{Dim: "measured", Value: "true"}}
		s.Reducers = []string{"box"}
	case "fig14": // RowPress BER vs tAggON (kind rowpress-ber)
		s.GroupBy = []string{"tagg_on"}
		s.Metric = "ber_percent"
		s.Reducers = []string{"count", "mean"}
	case "fig15": // RowPress HCfirst vs tAggON (kind rowpress-hc)
		s.GroupBy = []string{"chip", "tagg_on"}
		s.Metric = "hcfirst"
		s.Where = []Cond{{Dim: "found", Value: "true"}, {Dim: "within_window", Value: "true"}}
		s.Reducers = []string{"box"}
	case "fig16": // TRR bypass BER per (dummies, aggressor ACTs) (kind bypass)
		s.GroupBy = []string{"dummies", "agg_acts"}
		s.Metric = "ber_percent"
		s.Reducers = []string{"count", "mean", "max"}
	case "figrank": // HCfirst across ranks within each chip (kind hcfirst, multi-rank organizations)
		s.GroupBy = []string{"chip", "rank"}
		s.Metric = "hcfirst"
		s.Where = []Cond{{Dim: "found", Value: "true"}}
		s.Reducers = []string{"count", "mean", "min", "max"}
	case "figvrd": // per-row HCfirst spread across repeated trials (kind vrd)
		s.GroupBy = []string{"chip"}
		s.Metric = "ratio"
		s.Where = []Cond{{Dim: "measured", Value: "true"}}
		s.Reducers = []string{"box"}
	case "figcoldist": // column-disturb flips vs victim distance (kind coldist)
		s.GroupBy = []string{"distance"}
		s.Metric = "flips"
		s.Reducers = []string{"count", "mean", "max"}
	default:
		return Spec{}, specErr("no figure spec %q (have fig4 fig5 fig6 fig7 fig9 fig13 fig14 fig15 fig16 figrank figvrd figcoldist)", fig)
	}
	return s, nil
}
