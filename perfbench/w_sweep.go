package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/query"
	"hbmrd/internal/store"
)

// sweepMix is the sweep workload's rotation: the paper's figure sweeps
// at demo scale, each read back through its figure query.
var sweepMix = []shape{
	{kind: core.KindHCFirst, figure: "fig5", chips: 2, channels: 2, rows: 10, extraJSON: `"Reps":1`},
	{kind: core.KindHCFirst, figure: "fig7", chips: 1, channels: 4, rows: 10, extraJSON: `"Reps":1`},
	{kind: core.KindBER, figure: "fig4", chips: 2, channels: 3, rows: 15, extraJSON: `"Reps":1`},
	{kind: core.KindBER, figure: "fig6", chips: 1, channels: 6, rows: 15, extraJSON: `"Reps":1`},
	{kind: core.KindRowPressHC, figure: "fig15", chips: 1, channels: 2, rows: 10},
	{kind: core.KindVRD, figure: "figvrd", chips: 1, channels: 3, rows: 15, extraJSON: `"Trials":3`},
}

// sweepDigestOps is how many leading ops the digest covers: two turns
// of the rotation.
const sweepDigestOps = 12

type sweepState struct {
	st    *store.Store
	eng   *query.Engine
	spool string
	big   seeded // a 16K-record sweep stored in set-up
}

// runSweepWorkload is a closed loop on one client: resolve -> run ->
// PutFile, then one cold and one cached figure query of the new sweep,
// in-process. The query_* metrics come from a second pair per op: a
// novel query and its repeat over a 16K-record sweep stored in set-up.
// The figure queries read a few hundred records, so the derived-cache
// fsync is most of a cold one, and fsync latency on a shared disk moves by
// half between runs; over 16K records computing dominates.
func runSweepWorkload(e *env) error {
	seen := map[string]bool{}
	warm := newGen(e.seed, 2)
	bigSpec := querySeedMix[0].spec(newGen(e.seed, 8))
	// Three set-ups: each stores the 16K-record sweep (~2 s).
	s, err := setup(e, 3, func(dir string) (*sweepState, error) {
		st, err := openStore(dir, "store")
		if err != nil {
			return nil, err
		}
		spool := filepath.Join(dir, "spool")
		if err := os.MkdirAll(spool, 0o755); err != nil {
			return nil, err
		}
		eng := query.NewEngine(st)
		// One warm-up sweep and query per shape: first-use costs that every
		// later sweep would not pay belong to set-up.
		for _, sh := range sweepMix {
			sw, _, err := sweepDirect(nil, st, spool, freshSpec(warm, sh, seen), false)
			if err != nil {
				return nil, err
			}
			q, err := query.FigureSpec(sh.figure, sw.Fingerprint)
			if err != nil {
				return nil, err
			}
			if _, err := eng.Run(q); err != nil {
				return nil, err
			}
		}
		big, _, err := sweepDirect(nil, st, spool, bigSpec, false)
		if err != nil {
			return nil, err
		}
		return &sweepState{st: st, eng: eng, spool: spool, big: seeded{fp: big.Fingerprint, kind: big.Kind}}, nil
	}, func(*sweepState) {})
	if err != nil {
		return err
	}

	type done struct {
		fp        string
		q         query.Spec
		cold, hit *query.Result
		bq        query.Spec // the novel query over the large sweep
		bigCold   *query.Result
		bigHit    *query.Result
	}
	var ops []done
	seenQ := map[string]bool{}
	g := newGen(e.seed, 1)
	settle()
	stopProfile := e.startProfile()
	start := time.Now()
	n := closedLoop(e.seconds, sweepDigestOps, func(i int) {
		sh := sweepMix[i%len(sweepMix)]
		spec := freshSpec(g, sh, seen)
		root := e.span(i, "op.sweep")
		t0 := time.Now()
		sw, al, err := sweepDirect(root, s.st, s.spool, spec, root != nil)
		if err != nil {
			root.End()
			e.res.fail(i, "%v", err)
			ops = append(ops, done{})
			return
		}
		sweepDur := time.Since(t0)
		q, err := query.FigureSpec(sh.figure, sw.Fingerprint)
		if err != nil {
			root.End()
			e.res.fail(i, "%v", err)
			ops = append(ops, done{})
			return
		}
		cold, cerr := runQuery(root, s.eng, q)
		hit, herr := runQuery(root, s.eng, q)
		bq := freshQuery(newGen(e.seed, int64(3000+i)), s.big.kind, s.big.fp, seenQ)
		t1 := time.Now()
		bigCold, bcerr := runQuery(root, s.eng, bq)
		t2 := time.Now()
		bigHit, bherr := runQuery(root, s.eng, bq)
		t3 := time.Now()
		root.End()
		ops = append(ops, done{fp: sw.Fingerprint, q: q, cold: cold, hit: hit, bq: bq, bigCold: bigCold, bigHit: bigHit})
		if cerr != nil || herr != nil || bcerr != nil || bherr != nil {
			e.res.fail(i, "query: %v %v %v %v", cerr, herr, bcerr, bherr)
			return
		}
		e.res.addLatency(&e.res.sweepMS, sweepDur)
		e.res.addLatency(&e.res.coldMS, t2.Sub(t1))
		e.res.addLatency(&e.res.hitMS, t3.Sub(t2))
		e.res.cells += int64(sw.Cells)
		if root != nil {
			e.res.allocs(al)
		}
	})
	e.res.cellsWall = time.Since(start)
	stopProfile()
	e.res.attempted = n
	e.res.digestOps = sweepDigestOps

	// Output checks, outside the measured window.
	for i, op := range ops {
		if op.fp == "" || op.cold == nil || op.hit == nil || op.bigCold == nil || op.bigHit == nil {
			continue
		}
		ss, err := checkStored(s.st, op.fp)
		if err != nil {
			e.res.fail(i, "%v", err)
			continue
		}
		if op.cold.CacheHit || !op.hit.CacheHit || !bytes.Equal(op.cold.JSON, op.hit.JSON) ||
			op.bigCold.CacheHit || !op.bigHit.CacheHit || !bytes.Equal(op.bigCold.JSON, op.bigHit.JSON) {
			e.res.fail(i, "a cached query's answer differs from its cold one, or a cold query hit the cache")
			continue
		}
		e.res.stored(ss.footprint, ss.records)
		e.res.output(i, ss.raw, op.cold.JSON, op.bigCold.JSON)
	}
	var specs []query.Spec
	var served [][]byte
	for i := 0; i < len(ops) && len(specs) < probeCap; i += 2 {
		if ops[i].cold != nil && ops[i].bigCold != nil {
			specs = append(specs, ops[i].q, ops[i].bq)
			served = append(served, ops[i].cold.JSON, ops[i].bigCold.JSON)
		}
	}
	return probeQueries(e, s.st, specs, served)
}
