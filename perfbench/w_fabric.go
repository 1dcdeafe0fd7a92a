package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/fabric"
	"hbmrd/internal/query"
	"hbmrd/internal/serve"
)

// fabricShape is the fabric workload's sweep: 96 plan cells (four
// channels x 24 rows), which hbmrdd's default of 2 shards per peer
// splits four ways across the two workers.
var fabricShape = shape{kind: core.KindBER, chips: 1, channels: 4, rows: 24,
	extraJSON: `"Patterns":["Rowstripe0"],"Reps":1`}

// fabricDigestOps is how many leading ops the digest covers.
const fabricDigestOps = 6

type fabricState struct {
	coord, w1, w2 *daemon
	transport     *fabricTransport

	big seeded // the 16K-record sweep set-up stored through the fabric

	mu       sync.Mutex
	current  *Active // the traced op in flight; one client, one op at a time
	dists    int     // Distribute calls
	distErrs int
}

func (s *fabricState) stop() {
	s.coord.stop()
	s.w1.stop()
	s.w2.stop()
}

// runFabricWorkload is a closed loop on one client against a coordinator
// daemon with two in-process worker daemons: each op submits a shardable
// sweep and reads its stream. A query phase follows: per op, one novel
// query and its repeat over a 16K-record sweep that set-up stored through
// the fabric. The queries read that large sweep rather than the ops' own
// 192-record ones so that computing dominates a cold query: on these
// small ones the derived-cache fsync is most of it, and the host's fsync
// latency moves between runs by half.
func runFabricWorkload(e *env) error {
	seen := map[string]bool{}
	warm := newGen(e.seed, 7)
	bigSpec := querySeedMix[0].spec(newGen(e.seed, 8))
	// Three set-ups: each distributes the 16K-record sweep (~2 s).
	s, err := setup(e, 3, func(dir string) (*fabricState, error) {
		fs := &fabricState{transport: newFabricTransport()}
		var err error
		if fs.w1, err = startDaemon(filepath.Join(dir, "w1"), e.rec, nil); err != nil {
			return nil, err
		}
		if fs.w2, err = startDaemon(filepath.Join(dir, "w2"), e.rec, nil); err != nil {
			fs.w1.stop()
			return nil, err
		}
		coord, err := fabric.New(fabric.Config{
			Peers:        []string{fs.w1.url, fs.w2.url},
			ShardTimeout: 2 * time.Minute,
			Client:       &http.Client{Transport: fs.transport},
			Log:          discardLog,
		})
		if err != nil {
			fs.w1.stop()
			fs.w2.stop()
			return nil, err
		}
		distribute := func(ctx context.Context, sw *serve.Sweep, spool string) error {
			fs.mu.Lock()
			parent := fs.current
			fs.mu.Unlock()
			sp := parent.Child("fabric.distribute")
			fs.transport.setParent(sp)
			err := coord.Distribute(ctx, sw, spool)
			fs.transport.setParent(nil)
			sp.End("cells", sw.Cells)
			fs.mu.Lock()
			fs.dists++
			if err != nil {
				fs.distErrs++
			}
			fs.mu.Unlock()
			return err
		}
		if fs.coord, err = startDaemon(filepath.Join(dir, "coord"), e.rec, distribute); err != nil {
			fs.w1.stop()
			fs.w2.stop()
			return nil, err
		}
		c := newClient(fs.coord.url, 1)
		defer c.close()
		op := &sweepOp{spec: freshSpec(warm, fabricShape, seen)}
		if _, err := submit(c, nil, op); err != nil {
			fs.stop()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		big := &sweepOp{spec: bigSpec}
		if _, err := submit(c, nil, big); err != nil {
			fs.stop()
			return nil, fmt.Errorf("query-target sweep: %w", err)
		}
		fs.big = seeded{fp: big.fp, kind: big.kind}
		return fs, nil
	}, func(fs *fabricState) { fs.stop() })
	if err != nil {
		return err
	}
	defer s.stop()

	type fop struct {
		sweepOp
		q         query.Spec
		cold, hit []byte
		coldHit   bool
		hitHit    bool
	}
	var ops []*fop
	var queueWait []float64
	g := newGen(e.seed, 6)
	c := newClient(s.coord.url, 1)
	defer c.close()
	s.transport.reset()
	s.coord.stats.reset()
	s.mu.Lock()
	s.dists, s.distErrs = 0, 0
	s.mu.Unlock()
	settle()
	stopProfile := e.startProfile()
	start := time.Now()
	n := closedLoop(e.seconds, fabricDigestOps, func(i int) {
		op := &fop{sweepOp: sweepOp{spec: freshSpec(g, fabricShape, seen)}}
		ops = append(ops, op)
		root := e.span(i, "op.fabric")
		s.mu.Lock()
		s.current = root
		s.mu.Unlock()
		t0 := time.Now()
		qw, err := submit(c, root, &op.sweepOp)
		sweepDur := time.Since(t0)
		s.mu.Lock()
		s.current = nil
		s.mu.Unlock()
		root.End()
		if err != nil {
			e.res.fail(i, "sweep: %v", err)
			return
		}
		op.ok, op.traced = true, root != nil
		e.res.addLatency(&e.res.sweepMS, sweepDur)
		queueWait = append(queueWait, float64(qw.Nanoseconds())/1e6)
	})
	e.res.cellsWall = time.Since(start)

	// The query phase runs after a settle: a cold query's derived-cache
	// fsync right behind a distributed sweep's finalizes would pay for
	// their deletions at random.
	settle()
	seenQ := map[string]bool{}
	for i, op := range ops {
		if !op.ok {
			continue
		}
		op.q = freshQuery(newGen(e.seed, int64(2000+i)), s.big.kind, s.big.fp, seenQ)
		body, err := json.Marshal(op.q)
		if err != nil {
			e.res.fail(i, "%v", err)
			continue
		}
		root := e.span(i, "op.fabric_query")
		t1 := time.Now()
		cold, cerr := c.do(root, "POST", "/query", body)
		t2 := time.Now()
		hit, herr := c.do(root, "POST", "/query", body)
		t3 := time.Now()
		root.End()
		if cerr == nil {
			cerr = expectCode(cold, 200)
		}
		if herr == nil {
			herr = expectCode(hit, 200)
		}
		if cerr != nil || herr != nil {
			op.ok = false
			e.res.fail(i, "query: %v %v", cerr, herr)
			continue
		}
		op.cold, op.hit = cold.body, hit.body
		op.coldHit = cold.header.Get("X-Hbmrd-Query-Cache") == "hit"
		op.hitHit = hit.header.Get("X-Hbmrd-Query-Cache") == "hit"
		e.res.addLatency(&e.res.coldMS, t2.Sub(t1))
		e.res.addLatency(&e.res.hitMS, t3.Sub(t2))
		if root != nil {
			e.res.httpHitReqMS = append(e.res.httpHitReqMS, float64(t3.Sub(t2).Nanoseconds())/1e6)
		}
	}
	stopProfile()
	e.res.attempted = n
	e.res.digestOps = fabricDigestOps

	// Output checks. The first sweep, and every traced one, is compared
	// byte for byte against a local run of the same spec.
	var local []serve.SweepSpec
	var localOps []int
	for i, op := range ops {
		if !op.ok {
			continue
		}
		ss, err := checkStored(s.coord.st, op.fp)
		if err != nil {
			e.res.fail(i, "%v", err)
			continue
		}
		if !bytes.Equal(ss.raw, op.stream) {
			e.res.fail(i, "streamed bytes differ from the stored sweep")
			continue
		}
		if op.coldHit || !op.hitHit || !bytes.Equal(op.cold, op.hit) {
			e.res.fail(i, "cold/cached query mismatch")
			continue
		}
		e.res.stored(ss.footprint, ss.records)
		e.res.cells += int64(fabricShape.cells())
		e.res.output(i, op.stream, op.cold)
		if (i == 0 || op.traced) && len(local) < probeCap {
			local = append(local, op.spec)
			localOps = append(localOps, i)
		}
	}
	runs, err := probeSweeps(e, local)
	if err != nil {
		return err
	}
	for k, b := range runs {
		if !bytes.Equal(b, ops[localOps[k]].stream) {
			e.res.fail(localOps[k], "distributed sweep differs from a local run of the same spec")
		}
	}

	kinds, shards, retries := s.transport.counts()
	sweeps := max(1, s.dists)
	for _, k := range []string{"submit", "status", "stream", "healthz"} {
		e.res.layer["fabric.requests_per_shard."+k] = float64(kinds[k]) / float64(max(1, shards))
	}
	e.res.layer["fabric.retries"] = float64(retries)
	e.res.shardsPerSweep = float64(shards) / float64(sweeps)
	e.res.layer["serve.queue_wait_ms"] = median(queueWait)
	e.res.routeLayers(s.coord.stats)
	if s.distErrs > 0 {
		e.res.notes = append(e.res.notes, fmt.Sprintf("%d distributions fell back to a local run", s.distErrs))
	}
	var qSpecs []query.Spec
	var served [][]byte
	for _, op := range ops {
		if op.ok && op.traced && len(qSpecs) < probeCap {
			qSpecs = append(qSpecs, op.q)
			served = append(served, op.cold)
		}
	}
	return probeQueries(e, s.coord.st, qSpecs, served)
}
