package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/query"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// shardSpec returns base with a shard range [start, end) spliced in.
func shardSpec(t *testing.T, base string, start, end int) string {
	t.Helper()
	s := specValue(t, base)
	s.Shard = &ShardSpec{Start: start, End: end}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runReference executes a resolved sweep locally, uninterrupted, and
// returns the spool bytes split into header line and payload.
func runReference(t *testing.T, sweep *Sweep) (header, payload []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Run(context.Background(), core.WithSink(core.NewJSONLFileSink(f))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		t.Fatal("reference run produced no header line")
	}
	return b[:i+1], b[i+1:]
}

// TestServiceShardSubmitAndMerge: shard specs run through the whole
// service flow - dedup under their sub-fingerprint, spool, store - and
// the concatenated shard payloads are byte-identical to the payload of
// an uninterrupted whole-sweep run.
func TestServiceShardSubmitAndMerge(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestService(t, dir)
	defer srv.Drain()

	parent, err := Resolve(specValue(t, tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	if !parent.Shardable() || parent.Cells != 2 {
		t.Fatalf("tiny ber sweep: shardable=%v cells=%d, want shardable with 2 cells", parent.Shardable(), parent.Cells)
	}
	_, wantPayload := runReference(t, parent)

	var merged []byte
	for _, r := range []ShardSpec{{0, 1}, {1, 2}} {
		got := postSpec(t, ts.URL, shardSpec(t, tinySpec(), r.Start, r.End))
		wantFP := core.ShardFingerprint(parent.Fingerprint, r.Start, r.End)
		if got.Fingerprint != wantFP {
			t.Fatalf("shard [%d:%d) fingerprint %s, want %s", r.Start, r.End, got.Fingerprint, wantFP)
		}
		waitForStatus(t, ts.URL, got.Fingerprint, "cached")

		// A resubmitted shard spec dedups like a whole sweep.
		if again := postSpec(t, ts.URL, shardSpec(t, tinySpec(), r.Start, r.End)); again.Status != "cached" {
			t.Errorf("shard resubmit status = %q, want cached", again.Status)
		}

		resp, err := http.Get(ts.URL + "/sweeps/" + got.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			t.Fatal("shard stream has no header line")
		}
		var h core.SweepHeader
		if err := json.Unmarshal(body[:i], &h); err != nil {
			t.Fatal(err)
		}
		if h.Parent != parent.Fingerprint || h.ShardStart != r.Start || h.ShardEnd != r.End || h.Fingerprint != wantFP {
			t.Errorf("shard header lineage = parent %s [%d:%d) fp %s", h.Parent, h.ShardStart, h.ShardEnd, h.Fingerprint)
		}
		merged = append(merged, body[i+1:]...)

		// The stored catalog entry carries the same lineage.
		_, meta, err := srv.store.Path(got.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Parent != parent.Fingerprint || meta.ShardStart != r.Start || meta.ShardEnd != r.End {
			t.Errorf("stored meta lineage = parent %s [%d:%d)", meta.Parent, meta.ShardStart, meta.ShardEnd)
		}
	}
	if !bytes.Equal(merged, wantPayload) {
		t.Errorf("merged shard payloads (%d bytes) diverge from the whole-sweep payload (%d bytes)", len(merged), len(wantPayload))
	}
}

// TestShardObjectTwinBuiltOnFirstQuery: a worker finalizes a shard
// object without a columnar twin, because the coordinator reads only its
// JSONL. A query over the shard still succeeds: its cold path builds the
// twin, and the answer equals RunCold over that twin.
func TestShardObjectTwinBuiltOnFirstQuery(t *testing.T) {
	srv, ts := newTestService(t, t.TempDir())
	defer srv.Drain()

	fp := postSpec(t, ts.URL, shardSpec(t, tinySpec(), 0, 1)).Fingerprint
	waitForStatus(t, ts.URL, fp, "cached")
	path, meta, err := srv.store.Path(fp)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Parent == "" {
		t.Fatalf("stored shard has no parent in its meta: %+v", meta)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(path), "results.hbmc")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("shard object was finalized with a columnar twin (stat: %v)", err)
	}

	qspec, err := query.FigureSpec("fig4", fp)
	if err != nil {
		t.Fatal(err)
	}
	qJSON, err := json.Marshal(qspec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qJSON))
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query over a shard object: %d %s", resp.StatusCode, served)
	}
	if !srv.store.HasColumnar(fp) {
		t.Error("the first query left no columnar twin behind")
	}
	ref, err := srv.queries.RunCold(qspec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, ref.JSON) {
		t.Errorf("query served\n%s\nRunCold over the rebuilt twin answers\n%s", served, ref.JSON)
	}
}

// TestServiceRejectsBadShards: out-of-range shards and shards of
// unshardable kinds are client errors, not jobs.
func TestServiceRejectsBadShards(t *testing.T) {
	t.Parallel()
	srv, ts := newTestService(t, t.TempDir())
	defer srv.Drain()
	for _, spec := range []string{
		shardSpec(t, tinySpec(), 0, 9),  // beyond the 2-cell plan
		shardSpec(t, tinySpec(), 1, 1),  // empty
		shardSpec(t, tinySpec(), -1, 1), // negative
		`{"kind":"aging","chips":[2],"identity_mapping":true,"shard":{"start":0,"end":1},
			"config":{"BER":{"Channels":[0],"Rows":[2000],"Reps":1}}}`,
	} {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("shard spec %q: status %d, want 400", spec, resp.StatusCode)
		}
	}
}

// TestServiceHealthzShardLineage: healthz lists in-flight jobs with their
// shard lineage, so a coordinator can see which shards of which parent
// are already running or queued on a worker.
func TestServiceHealthzShardLineage(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestService(t, dir)
	defer srv.Drain()

	// Pin one whole sweep and one shard in flight (white box: neither is
	// enqueued, so neither can finish before the healthz read): both must
	// appear in healthz, the shard with lineage.
	parent, err := Resolve(specValue(t, tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := Resolve(specValue(t, shardSpec(t, tinySpec(), 0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	for _, sw := range []*Sweep{parent, shard} {
		j := &job{sweep: sw, status: StatusRunning, done: make(chan struct{})}
		srv.jobs[sw.Fingerprint] = j
		defer close(j.done)
	}
	srv.mu.Unlock()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK       bool        `json:"ok"`
		LiveJobs int         `json:"live_jobs"`
		Jobs     []healthJob `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.LiveJobs != 2 || len(h.Jobs) != 2 {
		t.Fatalf("healthz = %+v, want 2 live jobs", h)
	}
	found := false
	for _, j := range h.Jobs {
		if j.Fingerprint != shard.Fingerprint {
			continue
		}
		found = true
		if j.Parent != parent.Fingerprint || j.ShardStart != 0 || j.ShardEnd != 2 {
			t.Errorf("shard job lineage = %+v, want parent %s [0:2)", j, parent.Fingerprint)
		}
	}
	if !found {
		t.Errorf("healthz jobs %+v omit the queued shard %s", h.Jobs, shard.Fingerprint)
	}
}

// TestServiceDistributeFallsBackToLocal: a failing Distribute hook must
// not fail the sweep - the server logs it and completes locally, and the
// hook is only ever offered shardable whole sweeps.
func TestServiceDistributeFallsBackToLocal(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offered []string
	srv, err := New(Config{Store: st, Workers: 1, Jobs: 2, Log: telemetry.NewLogger(t.Logf),
		Distribute: func(_ context.Context, sw *Sweep, _ string) error {
			offered = append(offered, sw.Fingerprint)
			return errors.New("all peers are down")
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	whole := postSpec(t, ts.URL, tinySpec())
	waitForStatus(t, ts.URL, whole.Fingerprint, "cached")
	// A shard job is itself never re-distributed.
	other := `{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0],"Rows":[2000,3000,4000],"Patterns":["Rowstripe0"],"Reps":1}}`
	shard := postSpec(t, ts.URL, shardSpec(t, other, 0, 2))
	waitForStatus(t, ts.URL, shard.Fingerprint, "cached")

	if len(offered) != 1 || offered[0] != whole.Fingerprint {
		t.Errorf("Distribute saw %v, want exactly the whole sweep %s", offered, whole.Fingerprint)
	}
}

// TestServiceStreamClientDisconnect: a live-tail stream whose client goes
// away must release its handler instead of polling the spool forever.
func TestServiceStreamClientDisconnect(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestService(t, dir)
	defer srv.Drain()

	// A job pinned in the running state (white box: never enqueued, so it
	// never terminates during the test) keeps the tail loop polling its
	// not-yet-spooled file indefinitely.
	sweep, err := Resolve(specValue(t, tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	j := &job{sweep: sweep, status: StatusRunning, done: make(chan struct{})}
	srv.mu.Lock()
	srv.jobs[sweep.Fingerprint] = j
	srv.mu.Unlock()
	defer close(j.done)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/sweeps/"+sweep.Fingerprint, nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()

	select {
	case <-done:
		t.Fatal("live tail ended while the job was still running")
	case <-time.After(250 * time.Millisecond):
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler kept tailing after the client disconnected")
	}
}
