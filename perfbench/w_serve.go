package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/query"
	"hbmrd/internal/serve"
)

// serveShapes are the serve workload's small sweeps (4-16 cells), where
// per-sweep fixed costs dominate: fleet build, first-touch calibration,
// spool, finalize plus transcode, and HTTP.
var serveShapes = []shape{
	{kind: core.KindBER, chips: 1, channels: 1, rows: 4, extraJSON: `"Reps":1`},     // 4 cells
	{kind: core.KindHCFirst, chips: 1, channels: 2, rows: 4, extraJSON: `"Reps":1`}, // 8 cells
	{kind: core.KindBER, chips: 1, channels: 2, rows: 8, extraJSON: `"Reps":1`},     // 16 cells
	{kind: core.KindHCFirst, chips: 1, channels: 3, rows: 3, extraJSON: `"Reps":1`}, // 9 cells
}

const (
	// serveSweepRate and serveQueryRate are the two open-loop streams'
	// arrival rates, one connection each.
	serveSweepRate = 10.0
	serveQueryRate = 24.0
	// serveResubmitShare of sweep submissions repeat a stored spec (dedup).
	serveResubmitShare = 0.2
	// serveQueryLag: a query targets the latest sweep due at least this
	// long before it, so the target is normally stored by then.
	serveQueryLag = 1500 * time.Millisecond
)

type serveState struct {
	d      *daemon
	stored []seeded // set-up sweeps: resubmit targets, first query targets
}

// sweepOp is one submission on the serve or fabric sweep stream.
type sweepOp struct {
	spec     serve.SweepSpec
	resubmit bool
	due      time.Time
	fp       string
	kind     core.Kind
	stream   []byte
	ok       bool
	traced   bool
	done     chan struct{} // closed when the op finishes, either way
}

// submit sends one sweep through the daemon: POST /sweeps, then GET
// /sweeps/<fp> to EOF. It returns the sweep latency and the wait between
// the 202 and the first stream byte.
func submit(c *client, root *Active, op *sweepOp) (queueWait time.Duration, err error) {
	body, err := json.Marshal(op.spec)
	if err != nil {
		return 0, err
	}
	rep, err := c.do(root, "POST", "/sweeps", body)
	if err != nil {
		return 0, err
	}
	want := 202
	if op.resubmit {
		want = 200
	}
	if err := expectCode(rep, want); err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	accepted := time.Now()
	var sr struct {
		Fingerprint string `json:"fingerprint"`
		Kind        string `json:"kind"`
	}
	if err := json.Unmarshal(rep.body, &sr); err != nil {
		return 0, fmt.Errorf("submit reply: %w", err)
	}
	op.fp, op.kind = sr.Fingerprint, core.Kind(sr.Kind)
	rep, err = c.do(root, "GET", "/sweeps/"+sr.Fingerprint, nil)
	if err != nil {
		return 0, err
	}
	if err := expectCode(rep, 200); err != nil {
		return 0, fmt.Errorf("stream: %w", err)
	}
	op.stream = rep.body
	return rep.firstByte.Sub(accepted), nil
}

// runServeWorkload runs writes beside reads against one daemon: an open
// loop of sweep submissions (some resubmitting stored specs) on one
// connection, and an open loop of queries over sweeps finalized earlier
// in the run on the other.
func runServeWorkload(e *env) error {
	warm := newGen(e.seed, 5)
	warmSpecs := make([]serve.SweepSpec, len(serveShapes))
	for i, sh := range serveShapes {
		warmSpecs[i] = sh.spec(warm)
	}
	seen := map[string]bool{}
	for _, sp := range warmSpecs {
		seen[specKey(sp)] = true
	}
	s, err := setup(e, 5, func(dir string) (*serveState, error) {
		d, err := startDaemon(dir, e.rec, nil)
		if err != nil {
			return nil, err
		}
		ss := &serveState{d: d}
		c := newClient(d.url, 1)
		defer c.close()
		for _, sp := range warmSpecs {
			op := &sweepOp{spec: sp}
			if _, err := submit(c, nil, op); err != nil {
				d.stop()
				return nil, err
			}
			ss.stored = append(ss.stored, seeded{fp: op.fp, kind: op.kind})
		}
		return ss, nil
	}, func(ss *serveState) { ss.d.stop() })
	if err != nil {
		return err
	}
	defer s.d.stop()

	g := newGen(e.seed, 4)
	settle()
	start := time.Now().Add(50 * time.Millisecond)
	nS := int(e.seconds.Seconds() * serveSweepRate)
	sweeps := make([]*sweepOp, nS)
	for i := range sweeps {
		op := &sweepOp{due: start.Add(time.Duration(float64(i) / serveSweepRate * float64(time.Second))),
			done: make(chan struct{})}
		if g.Float64() < serveResubmitShare {
			op.spec, op.resubmit = warmSpecs[g.Intn(len(warmSpecs))], true
		} else {
			op.spec = freshSpec(g, serveShapes[i%len(serveShapes)], seen)
		}
		sweeps[i] = op
	}
	nQ := int(e.seconds.Seconds() * serveQueryRate)
	type qop struct {
		target int // sweep op index, or -1-k for set-up sweep k
		spec   query.Spec
		body   []byte
		hit    bool
		ok     bool
		traced bool
		reqDur time.Duration
	}
	queries := make([]*qop, nQ)
	for j := range queries {
		due := start.Add(time.Duration(float64(j) / serveQueryRate * float64(time.Second)))
		target := -1 - (j/2)%len(warmSpecs)
		for i := len(sweeps) - 1; i >= 0; i-- {
			if !sweeps[i].resubmit && !sweeps[i].due.After(due.Add(-serveQueryLag)) {
				target = i
				break
			}
		}
		queries[j] = &qop{target: target}
	}

	sc, qc := newClient(s.d.url, 1), newClient(s.d.url, 1)
	defer sc.close()
	defer qc.close()
	s.d.stats.reset()
	var queueWait []float64
	stopProfile := e.startProfile()
	done := make(chan struct{})
	go func() {
		defer close(done)
		openLoop(start, serveSweepRate, e.seconds, 1, e.res.late, func(i int, due time.Time) {
			op := sweeps[i]
			defer close(op.done)
			root := e.span(i, "op.serve_sweep")
			qw, err := submit(sc, root, op)
			root.End()
			lat := time.Since(due)
			if err != nil {
				e.res.fail(i, "sweep: %v", err)
				return
			}
			op.ok, op.traced = true, root != nil
			if op.resubmit {
				return
			}
			e.res.addLatency(&e.res.sweepMS, lat)
			e.res.mu.Lock()
			queueWait = append(queueWait, float64(qw.Nanoseconds())/1e6)
			e.res.mu.Unlock()
		})
	}()
	openLoop(start, serveQueryRate, e.seconds, 1, e.res.late, func(j int, due time.Time) {
		q := queries[j]
		id := nS + j
		var fp string
		var kind core.Kind
		if q.target >= 0 {
			t := sweeps[q.target]
			<-t.done // normally long done; a stall shows as latency
			if !t.ok {
				e.res.fail(id, "target sweep op %d failed", q.target)
				return
			}
			fp, kind = t.fp, t.kind
		} else {
			st := s.stored[-1-q.target]
			fp, kind = st.fp, st.kind
		}
		if j%2 == 0 {
			// Cold: a novel spec, drawn from a stream of its own so the
			// spec does not depend on timing.
			q.spec = freshQuery(newGen(e.seed, int64(1000+j)), kind, fp, map[string]bool{})
		} else {
			q.spec = queries[j-1].spec
		}
		body, err := json.Marshal(q.spec)
		if err != nil {
			e.res.fail(id, "%v", err)
			return
		}
		root := e.span(j, "op.serve_query")
		t0 := time.Now()
		rep, err := qc.do(root, "POST", "/query", body)
		root.End()
		lat := time.Since(due)
		if err == nil {
			err = expectCode(rep, 200)
		}
		if err != nil {
			e.res.fail(id, "query: %v", err)
			return
		}
		q.body, q.ok, q.traced, q.reqDur = rep.body, true, root != nil, time.Since(t0)
		q.hit = rep.header.Get("X-Hbmrd-Query-Cache") == "hit"
		if q.hit {
			e.res.addLatency(&e.res.hitMS, lat)
		} else {
			e.res.addLatency(&e.res.coldMS, lat)
		}
	})
	<-done
	stopProfile()
	e.res.cellsWall = e.seconds
	e.res.attempted = nS + nQ
	e.res.digestOps = nS + nQ

	// Output checks.
	var probeSpecs []serve.SweepSpec
	var probeStreams [][]byte
	for i, op := range sweeps {
		if !op.ok {
			continue
		}
		ss, err := checkStored(s.d.st, op.fp)
		if err != nil {
			e.res.fail(i, "%v", err)
			continue
		}
		if !bytes.Equal(ss.raw, op.stream) {
			e.res.fail(i, "streamed bytes differ from the stored sweep")
			continue
		}
		e.res.output(i, op.stream)
		if op.resubmit {
			continue
		}
		e.res.stored(ss.footprint, ss.records)
		var h core.SweepHeader
		if err := json.Unmarshal(op.stream[:bytes.IndexByte(op.stream, '\n')], &h); err == nil {
			e.res.cells += int64(h.Cells)
		}
		if op.traced && len(probeSpecs) < probeCap {
			probeSpecs = append(probeSpecs, op.spec)
			probeStreams = append(probeStreams, op.stream)
		}
	}
	var qSpecs []query.Spec
	var served [][]byte
	var hitReq []float64
	for j, q := range queries {
		if !q.ok {
			continue
		}
		if j%2 == 1 && queries[j-1].ok && !bytes.Equal(q.body, queries[j-1].body) {
			e.res.fail(nS+j, "repeated query answered different bytes")
			continue
		}
		e.res.output(nS+j, q.body)
		if q.traced && q.hit {
			hitReq = append(hitReq, float64(q.reqDur.Nanoseconds())/1e6)
			if len(qSpecs) < probeCap {
				qSpecs = append(qSpecs, q.spec)
				served = append(served, q.body)
			}
		}
	}
	e.res.httpHitReqMS = hitReq
	e.res.layer["serve.queue_wait_ms"] = median(queueWait)
	e.res.routeLayers(s.d.stats)
	if e.rec == nil {
		return nil
	}
	local, err := probeSweeps(e, probeSpecs)
	if err != nil {
		return err
	}
	for i := range local {
		if !bytes.Equal(local[i], probeStreams[i]) {
			e.res.fail(0, "served sweep differs from a local run of the same spec")
		}
	}
	return probeQueries(e, s.d.st, qSpecs, served)
}
