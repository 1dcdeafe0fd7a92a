// Package fabric is the distributed sweep coordinator: it splits one
// sweep's plan into contiguous cell-range shards, dispatches them to a
// pool of hbmrdd workers over the service's ordinary HTTP surface, and
// merges the shard streams back into the single-sweep spool file.
//
// One shard attempt is three requests to one worker: POST /sweeps submits
// the shard spec, GET /sweeps/<shard-fp> reads the worker's live tail of
// the job to EOF, and GET /sweeps/<shard-fp>/status then says how the job
// ended. The coordinator never polls: the tail ends when the job does,
// and the body is kept only when the status is "cached", the worker's
// stored byte and record counts match it, and every record line is JSON.
//
// The byte-identity contract: a sweep distributed across any number of
// workers - including workers that crash, hang, answer 5xx, or tear
// their streams mid-body - produces a final JSONL file byte-identical to
// the same sweep executed locally and uninterrupted. The mechanism is
// the engine's own determinism: a shard is the deterministic
// sub-fingerprint of its parent range (core.ShardFingerprint), its
// payload is exactly the parent's record lines for that range, and the
// merged file is the parent header plus the contiguous successful shard
// payloads - a valid checkpoint the engine's Checkpoint/WithResume
// machinery extends locally to heal any gap. Failure never costs
// correctness, only the locality of the remaining work.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/serve"
	"hbmrd/internal/telemetry"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers are the base URLs of the hbmrdd workers (required).
	Peers []string
	// Shards is the target shard count per sweep (default 2 per peer),
	// clamped to the sweep's plan size.
	Shards int
	// Retry is the backoff discipline for per-shard dispatch.
	Retry Policy
	// ShardTimeout bounds one shard end to end - submit, stream, status
	// check, across all retries (0 = no bound; hbmrdd's -shard-timeout
	// defaults to 2m).
	ShardTimeout time.Duration
	// QuarantineAfter is the consecutive-failure count that quarantines a
	// worker (default 2); a quarantined worker rejoins when its /healthz
	// answers again.
	QuarantineAfter int
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
	// Client issues all worker requests (default http.DefaultClient); the
	// chaos tests plug a FaultInjector transport in here.
	Client *http.Client
	// Log receives coordinator log lines (default: discard; wrap any
	// printf-shaped sink with telemetry.NewLogger).
	Log *telemetry.Logger
	// Tracer, when set, receives per-shard spans (dispatch through the
	// validated stream) and the merge span for every distributed sweep,
	// keyed by the parent fingerprint.
	Tracer *telemetry.Tracer
}

// Coordinator distributes sweeps over a worker pool. Plug its Distribute
// method into serve.Config.Distribute (or call it directly).
type Coordinator struct {
	cfg    Config
	client *http.Client
	peers  []*peer

	mu   sync.Mutex
	next int
}

// New builds a Coordinator over cfg.Peers.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("fabric: config needs at least one peer")
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	c := &Coordinator{cfg: cfg, client: client}
	for _, u := range cfg.Peers {
		c.peers = append(c.peers, &peer{url: u})
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	c.cfg.Log.Infof(format, args...)
}

func (c *Coordinator) quarantineAfter() int {
	if c.cfg.QuarantineAfter > 0 {
		return c.cfg.QuarantineAfter
	}
	return 2
}

// splitPlan cuts cells into n contiguous near-equal ranges.
func splitPlan(cells, n int) []serve.ShardSpec {
	if n > cells {
		n = cells
	}
	if n < 1 {
		n = 1
	}
	base, rem := cells/n, cells%n
	ranges := make([]serve.ShardSpec, 0, n)
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		ranges = append(ranges, serve.ShardSpec{Start: start, End: start + size})
		start += size
	}
	return ranges
}

func (c *Coordinator) shardCount() int {
	if c.cfg.Shards > 0 {
		return c.cfg.Shards
	}
	return 2 * len(c.peers)
}

// shardResult is one dispatched shard's outcome.
type shardResult struct {
	header  core.SweepHeader
	payload []byte
	err     error
}

// Distribute executes sw across the worker pool and assembles the merged
// stream at spool. On full success the spool holds the complete sweep,
// byte-identical to a local run, and Distribute returns nil. On partial
// success it holds the parent header plus the contiguous successful
// shard prefix - a valid checkpoint - and Distribute returns an error,
// which tells the serving layer to finish the remainder locally through
// its ordinary resume path. Matches the serve.Config.Distribute contract.
func (c *Coordinator) Distribute(ctx context.Context, sw *serve.Sweep, spool string) error {
	if !sw.Shardable() {
		return fmt.Errorf("fabric: sweep %s is not shardable", sw.Fingerprint)
	}
	distSpan := c.cfg.Tracer.Start(sw.Fingerprint, "distribute", "cells", sw.Cells, "peers", len(c.peers))
	ranges := splitPlan(sw.Cells, c.shardCount())
	c.logf("fabric: sweep %s: %d cells across %d shards on %d workers",
		sw.Fingerprint, sw.Cells, len(ranges), len(c.peers))

	results := make([]shardResult, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r serve.ShardSpec) {
			defer wg.Done()
			results[i] = c.dispatch(ctx, sw, r)
		}(i, r)
	}
	wg.Wait()

	// Merge the contiguous successful prefix. A later shard with an
	// earlier gap cannot be used: record replay is strictly plan-ordered,
	// so only an unbroken prefix is a valid checkpoint.
	k := len(ranges)
	for i := range results {
		if results[i].err != nil {
			c.logf("fabric: sweep %s shard [%d:%d) failed: %v",
				sw.Fingerprint, ranges[i].Start, ranges[i].End, results[i].err)
			if i < k {
				k = i
			}
		}
	}
	if k == 0 {
		mMergeNone.Inc()
		err := fmt.Errorf("fabric: no usable shard prefix for %s (first shard: %w)", sw.Fingerprint, results[0].err)
		distSpan.End("merged_shards", 0, "shards", len(ranges), "err", err.Error())
		return err
	}

	mergeSpan := c.cfg.Tracer.Start(sw.Fingerprint, "merge", "shards", k)
	header, err := parentHeaderBytes(results[0].header, sw)
	if err != nil {
		mMergeNone.Inc()
		mergeSpan.End("err", err.Error())
		distSpan.End("merged_shards", 0, "shards", len(ranges), "err", err.Error())
		return err
	}
	var buf bytes.Buffer
	buf.Write(header)
	for _, res := range results[:k] {
		buf.Write(res.payload)
	}
	// A previous attempt may have left a longer local checkpoint at the
	// spool; keep whichever prefix is further along.
	if fi, err := os.Stat(spool); err == nil && k < len(ranges) && fi.Size() >= int64(buf.Len()) {
		mMergeNone.Inc()
		err := fmt.Errorf("fabric: merged %d of %d shards for %s, but the existing spool is further along; resuming it locally",
			k, len(ranges), sw.Fingerprint)
		mergeSpan.End("err", err.Error())
		distSpan.End("merged_shards", k, "shards", len(ranges), "err", err.Error())
		return err
	}
	if err := os.WriteFile(spool, buf.Bytes(), 0o644); err != nil {
		mMergeNone.Inc()
		err = fmt.Errorf("fabric: writing merged spool: %w", err)
		mergeSpan.End("err", err.Error())
		distSpan.End("merged_shards", k, "shards", len(ranges), "err", err.Error())
		return err
	}
	mMergeBytes.Add(int64(buf.Len()))
	mergeSpan.End("bytes", buf.Len())
	if k < len(ranges) {
		mMergePartial.Inc()
		err := fmt.Errorf("fabric: merged %d of %d shards for %s; finishing cells %d.. locally",
			k, len(ranges), sw.Fingerprint, ranges[k].Start)
		distSpan.End("merged_shards", k, "shards", len(ranges), "err", err.Error())
		return err
	}
	mMergeFull.Inc()
	c.logf("fabric: sweep %s merged from %d shards (%d bytes)", sw.Fingerprint, len(ranges), buf.Len())
	distSpan.End("merged_shards", k, "shards", len(ranges), "bytes", buf.Len())
	return nil
}

// parentHeaderBytes reconstructs the parent sweep's exact header line
// from a shard's header: same fields, shard lineage cleared. The sink
// writes headers with json.Encoder, so a marshal of the restored struct
// is byte-identical to what a local run would have written.
func parentHeaderBytes(shard core.SweepHeader, sw *serve.Sweep) ([]byte, error) {
	if shard.Parent != sw.Fingerprint {
		return nil, fmt.Errorf("fabric: shard header parent %s does not match sweep %s", shard.Parent, sw.Fingerprint)
	}
	h := shard
	h.Fingerprint = sw.Fingerprint
	h.Cells = sw.Cells
	h.Parent, h.ShardStart, h.ShardEnd = "", 0, 0
	b, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// dispatch runs one shard to completion on some healthy worker, retrying
// per the policy, under the per-shard deadline.
func (c *Coordinator) dispatch(ctx context.Context, sw *serve.Sweep, r serve.ShardSpec) shardResult {
	fp := core.ShardFingerprint(sw.Fingerprint, r.Start, r.End)
	mShardsDispatched.Inc()
	span := c.cfg.Tracer.Start(sw.Fingerprint, "shard", "start", r.Start, "end", r.End, "shard_fp", fp)
	spec := sw.Spec
	spec.Shard = &serve.ShardSpec{Start: r.Start, End: r.End}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		span.End("err", err.Error())
		return shardResult{err: err}
	}
	if c.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		defer cancel()
	}
	var res shardResult
	attempt := 0
	var lastPeer string
	err = c.cfg.Retry.Do(ctx, func(actx context.Context) error {
		attempt++
		mShardAttempts.Inc()
		if attempt > 1 {
			mShardRetries.Inc()
		}
		// On a retry, a previous attempt's shard may still be in flight on
		// a worker we merely lost patience with: reattach via the healthz
		// shard lineage instead of starting it again elsewhere.
		var p *peer
		if attempt > 1 {
			if p = c.findInFlight(actx, fp); p != nil {
				mShardReattaches.Inc()
				c.logf("fabric: shard %s already in flight on %s; reattaching", fp, p.url)
			}
		}
		if p == nil {
			var aerr error
			if p, aerr = c.acquire(actx); aerr != nil {
				return Permanent(aerr)
			}
		}
		lastPeer = p.url
		h, payload, rerr := c.runShard(actx, p, fp, specJSON)
		if rerr != nil {
			if p.fail(c.quarantineAfter()) {
				mQuarantines.Inc()
				c.logf("fabric: worker %s quarantined after consecutive failures", p.url)
			}
			return fmt.Errorf("%s: %w", p.url, rerr)
		}
		p.ok()
		res.header, res.payload = h, payload
		return nil
	})
	if err != nil {
		mShardFailures.Inc()
		span.End("attempts", attempt, "peer", lastPeer, "err", err.Error())
		return shardResult{err: err}
	}
	span.End("attempts", attempt, "peer", lastPeer, "bytes", len(res.payload))
	return res
}

// statusReply covers both shapes of /sweeps/<fp>/status: a live job
// (status, error) and a stored sweep (status "cached" plus counters).
type statusReply struct {
	Status  string `json:"status"`
	Error   string `json:"error"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// runShard performs one attempt: submit the shard spec, read the worker's
// live tail of it to EOF, then ask the worker how the job ended. The tail
// ends whenever the job does, so the body is the shard's result only if
// the status says "cached" and the body matches the stored byte and
// record counts with one JSON value per record; a failed or drained job,
// or a torn stream, is a retryable error. A retry that reattaches to a
// worker still running the shard submits there too: the worker dedups
// it, and the tail picks up the job in flight.
func (c *Coordinator) runShard(ctx context.Context, p *peer, fp string, specJSON []byte) (core.SweepHeader, []byte, error) {
	var zero core.SweepHeader
	status, body, err := c.request(ctx, http.MethodPost, p.url+"/sweeps", specJSON)
	switch {
	case err != nil:
		return zero, nil, err
	case status == http.StatusBadRequest:
		// The spec itself is broken; no worker will ever accept it.
		return zero, nil, Permanent(fmt.Errorf("fabric: shard spec rejected: %s", bytes.TrimSpace(body)))
	case status != http.StatusOK && status != http.StatusAccepted:
		return zero, nil, fmt.Errorf("fabric: submit: %d: %s", status, bytes.TrimSpace(body))
	}

	status, body, err = c.request(ctx, http.MethodGet, p.url+"/sweeps/"+fp, nil)
	if err != nil {
		return zero, nil, err
	}
	if status != http.StatusOK {
		return zero, nil, fmt.Errorf("fabric: stream: %d: %s", status, bytes.TrimSpace(body))
	}
	mFetchBytes.Add(int64(len(body)))

	status, reply, err := c.request(ctx, http.MethodGet, p.url+"/sweeps/"+fp+"/status", nil)
	if err != nil {
		return zero, nil, err
	}
	if status != http.StatusOK {
		return zero, nil, fmt.Errorf("fabric: status: %d: %s", status, bytes.TrimSpace(reply))
	}
	var st statusReply
	if err := json.Unmarshal(reply, &st); err != nil {
		return zero, nil, fmt.Errorf("fabric: status reply: %w", err)
	}
	switch st.Status {
	case "cached":
	case serve.StatusFailed:
		return zero, nil, fmt.Errorf("fabric: shard failed on worker: %s", st.Error)
	case serve.StatusCheckpointed:
		// The worker drained mid-shard; its spool keeps the valid prefix,
		// and a resubmission (this retry or a later one) resumes it.
		return zero, nil, fmt.Errorf("fabric: worker checkpointed the shard mid-run")
	default:
		// A drain can close a job it never ran, leaving it queued.
		return zero, nil, fmt.Errorf("fabric: shard stream ended with the job %s", st.Status)
	}
	if int64(len(body)) != st.Bytes {
		return zero, nil, fmt.Errorf("fabric: torn shard stream: got %d bytes, worker stored %d", len(body), st.Bytes)
	}
	i := bytes.IndexByte(body, '\n')
	if i < 0 {
		return zero, nil, fmt.Errorf("fabric: shard stream has no header line")
	}
	var h core.SweepHeader
	if err := json.Unmarshal(body[:i], &h); err != nil || h.Format == 0 {
		return zero, nil, fmt.Errorf("fabric: shard stream header is invalid: %v", err)
	}
	if h.Fingerprint != fp {
		return zero, nil, fmt.Errorf("fabric: shard stream fingerprint %s, want %s", h.Fingerprint, fp)
	}
	payload := body[i+1:]
	if got := bytes.Count(payload, []byte("\n")); got != st.Records {
		return zero, nil, fmt.Errorf("fabric: shard stream holds %d records, worker stored %d", got, st.Records)
	}
	// A worker resuming a spool that a crash left with a garbage tail
	// streams that tail before the run rewrites it, at the same offsets,
	// so the counts above can all match: each record must also be JSON.
	for rest, n := payload, 0; len(rest) > 0; n++ {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if !json.Valid(line) {
			return zero, nil, fmt.Errorf("fabric: torn shard stream: record %d is not JSON", n)
		}
	}
	return h, payload, nil
}

// request sends one worker request and reads the whole response body. A
// body cut short by the transport (a killed worker) is an error.
func (c *Coordinator) request(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
