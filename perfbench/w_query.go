package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/query"
	"hbmrd/internal/serve"
)

// querySeedMix is what the query workload's set-up stores: real sweeps
// of several kinds, from 16K records down to 60, with the share of
// queries each one receives. An odd count keeps the median of their
// sweep times on one sweep rather than between two.
var querySeedMix = []struct {
	shape
	weight float64
}{
	{shape{kind: core.KindBER, chips: 1, channels: 4, rows: 800, extraJSON: `"Reps":1`}, 0.3},     // 3200 cells, 16000 records
	{shape{kind: core.KindHCFirst, chips: 2, channels: 4, rows: 25, extraJSON: `"Reps":1`}, 0.25}, // 200 cells, 1000 records
	{shape{kind: core.KindBER, chips: 1, channels: 4, rows: 50, extraJSON: `"Reps":1`}, 0.25},     // 200 cells, 1000 records
	{shape{kind: core.KindRowPressHC, chips: 1, channels: 2, rows: 20}, 0.1},                      // 160 records
	{shape{kind: core.KindVRD, chips: 1, channels: 2, rows: 30, extraJSON: `"Trials":3`}, 0.1},    // 60 records
}

const (
	// queryRate is the query workload's arrival rate, well below what the
	// daemon sustains on 2 cores.
	queryRate = 60.0
	// queryRepeatShare of requests repeat an earlier spec: cache hits.
	queryRepeatShare = 0.5
	// queryConns is the client connection count (= cores on the
	// reference host).
	queryConns = 2
	// probeCap bounds how many specs or sweeps a traced run re-times
	// layer by layer after its measured window.
	probeCap = 60
)

// seeded is a sweep stored during set-up.
type seeded struct {
	fp   string
	kind core.Kind
}

type queryState struct {
	d      *daemon
	sweeps []seeded
}

// runQueryWorkload is an open loop of POST /query against a daemon
// whose store set-up seeded; the engine is idle, so columnar decode,
// reduce, store reads and HTTP/JSON are all of the work.
func runQueryWorkload(e *env) error {
	g := newGen(e.seed, 3)
	specs := make([]serve.SweepSpec, len(querySeedMix))
	for i, m := range querySeedMix {
		specs[i] = m.spec(g)
	}
	// Three set-ups: each stores ~2.5 s of sweeps, and their 15 sweep
	// times are this workload's sweep_ms samples.
	s, err := setup(e, 3, func(dir string) (*queryState, error) {
		st, err := openStore(dir, "store")
		if err != nil {
			return nil, err
		}
		spool := filepath.Join(dir, "spool")
		if err := os.MkdirAll(spool, 0o755); err != nil {
			return nil, err
		}
		qs := &queryState{}
		// The engine side of this workload lives in set-up: its sweeps are
		// what sweep_ms and cells_per_s report here.
		for _, spec := range specs {
			t0 := time.Now()
			sw, _, err := sweepDirect(nil, st, spool, spec, false)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			e.res.addLatency(&e.res.sweepMS, d)
			e.res.cells += int64(sw.Cells)
			e.res.cellsWall += d
			qs.sweeps = append(qs.sweeps, seeded{fp: sw.Fingerprint, kind: sw.Kind})
		}
		qs.d, err = startDaemon(st.Root(), e.rec, nil)
		return qs, err
	}, func(qs *queryState) { qs.d.stop() })
	if err != nil {
		return err
	}
	defer s.d.stop()

	// The request plan is fixed by the seed before anything is sent.
	type qop struct {
		spec     query.Spec
		body     []byte
		repeatOf int // index of the op whose spec this repeats, or -1
	}
	n := int(e.seconds.Seconds() * queryRate)
	minGap := int(queryRate / 2) // repeat only specs sent half a second earlier
	plan := make([]qop, n)
	seen := map[string]bool{}
	var novel []int
	for i := range plan {
		if len(novel) > 0 && novel[0] <= i-minGap && g.Float64() < queryRepeatShare {
			var eligible []int
			for _, j := range novel {
				if j <= i-minGap {
					eligible = append(eligible, j)
				}
			}
			j := eligible[g.Intn(len(eligible))]
			plan[i] = qop{spec: plan[j].spec, body: plan[j].body, repeatOf: j}
			continue
		}
		target := s.sweeps[weighted(g, len(s.sweeps), func(k int) float64 { return querySeedMix[k].weight })]
		spec := freshQuery(g, target.kind, target.fp, seen)
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		plan[i] = qop{spec: spec, body: body, repeatOf: -1}
		novel = append(novel, i)
	}

	type got struct {
		body   []byte
		hit    bool
		source string
		reqDur time.Duration
		ok     bool
		traced bool
	}
	replies := make([]got, n)
	c := newClient(s.d.url, queryConns)
	defer c.close()
	s.d.stats.reset()
	settle()
	stopProfile := e.startProfile()
	start := time.Now()
	openLoop(start, queryRate, e.seconds, queryConns, e.res.late, func(i int, due time.Time) {
		root := e.span(i, "op.query")
		t0 := time.Now()
		rep, err := c.do(root, "POST", "/query", plan[i].body)
		root.End()
		lat := time.Since(due)
		if err == nil {
			err = expectCode(rep, 200)
		}
		if err != nil {
			e.res.fail(i, "query: %v", err)
			return
		}
		hit := rep.header.Get("X-Hbmrd-Query-Cache") == "hit"
		replies[i] = got{body: rep.body, hit: hit, source: rep.header.Get("X-Hbmrd-Query-Source"),
			reqDur: time.Since(t0), ok: true, traced: root != nil}
		if hit {
			e.res.addLatency(&e.res.hitMS, lat)
		} else {
			e.res.addLatency(&e.res.coldMS, lat)
		}
	})
	stopProfile()
	e.res.attempted = n
	e.res.digestOps = n

	// Output checks: every stored sweep, and every repeat byte-identical
	// to the answer its spec got first.
	for _, sw := range s.sweeps {
		ss, err := checkStored(s.d.st, sw.fp)
		if err != nil {
			e.res.fail(0, "%v", err)
			continue
		}
		e.res.stored(ss.footprint, ss.records)
	}
	var hits, jsonl, cold int
	var hitReq []float64
	var probeSpecs []query.Spec
	var served [][]byte
	for i, r := range replies {
		if !r.ok {
			continue
		}
		if j := plan[i].repeatOf; j >= 0 && replies[j].ok && !bytes.Equal(r.body, replies[j].body) {
			e.res.fail(i, "repeat of op %d answered different bytes", j)
			continue
		}
		e.res.output(i, r.body)
		if r.hit {
			hits++
			if r.traced {
				hitReq = append(hitReq, float64(r.reqDur.Nanoseconds())/1e6)
				if len(probeSpecs) < probeCap {
					probeSpecs = append(probeSpecs, plan[i].spec)
					served = append(served, r.body)
				}
			}
		} else {
			cold++
			if r.source == query.SourceJSONL {
				jsonl++
			}
		}
	}
	e.res.layer["query.hit_ratio"] = float64(hits) / float64(max(1, hits+cold))
	e.res.layer["query.jsonl_ratio"] = float64(jsonl) / float64(max(1, cold))
	e.res.routeLayers(s.d.stats)
	if err := probeQueries(e, s.d.st, probeSpecs, served); err != nil {
		return err
	}
	e.res.httpHitReqMS = hitReq
	return nil
}

// weighted draws an index in [0, n) with probability proportional to w.
func weighted(g *gen, n int, w func(int) float64) int {
	var total float64
	for i := 0; i < n; i++ {
		total += w(i)
	}
	x := g.Float64() * total
	for i := 0; i < n; i++ {
		if x -= w(i); x < 0 {
			return i
		}
	}
	return n - 1
}
