package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/serve"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// testSpec is a sweep with enough plan cells (12) to shard meaningfully
// on the given preset.
func testSpec(t *testing.T, geometry string) serve.SweepSpec {
	t.Helper()
	raw := `{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0,1],"Rows":` + intsJSON(core.SampleRows(6)) + `,"Patterns":["Rowstripe0"],"Reps":1}}`
	var s serve.SweepSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	s.Geometry = geometry
	return s
}

func intsJSON(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// referenceRun executes the spec locally, uninterrupted, and returns the
// sweep file bytes - the byte-identity yardstick for every fabric path.
func referenceRun(t *testing.T, spec serve.SweepSpec) []byte {
	t.Helper()
	sw, err := serve.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Run(context.Background(), core.WithSink(core.NewJSONLFileSink(f))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newWorker starts one hbmrdd worker on its own store and returns its
// base URL plus the store directory (for spool inspection).
func newWorker(t *testing.T, jobs int) (url, dir string) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 2, Jobs: jobs, Log: telemetry.NewLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	return ts.URL, dir
}

func testPolicy() Policy {
	return Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
}

// newKindSpecs are the two post-legacy sweep kinds on the paper preset:
// the fabric contract must hold for them with zero fabric changes.
func newKindSpecs(t *testing.T) []serve.SweepSpec {
	t.Helper()
	rows := intsJSON(core.SampleRows(6))
	// SampleRows leaves only two rows of edge clearance; drop the last of
	// seven samples so every aggressor has a victim at distance 3.
	aggRows := intsJSON(core.SampleRows(7)[:6])
	var specs []serve.SweepSpec
	for _, raw := range []string{
		`{"kind":"vrd","chips":[0],"identity_mapping":true,
			"config":{"Rows":` + rows + `,"Trials":3}}`,
		`{"kind":"coldist","chips":[0],"identity_mapping":true,
			"config":{"AggRows":` + aggRows + `,"Distances":[1,3],"Stripes":[2],"Reads":8000,"MaxReads":131072}}`,
	} {
		var s serve.SweepSpec
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// assertShardedIdentity distributes spec across two workers and demands
// the merged spool match the uninterrupted local run byte for byte.
func assertShardedIdentity(t *testing.T, spec serve.SweepSpec) {
	t.Helper()
	want := referenceRun(t, spec)

	w1, _ := newWorker(t, 2)
	w2, _ := newWorker(t, 2)
	c, err := New(Config{Peers: []string{w1, w2}, Shards: 4, Retry: testPolicy(), Log: telemetry.NewLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := serve.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	spool := filepath.Join(t.TempDir(), "merged.jsonl")
	if err := c.Distribute(context.Background(), sw, spool); err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	got, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged sweep (%d bytes) diverges from uninterrupted local run (%d bytes)", len(got), len(want))
	}
}

// TestGoldenShardedByteIdentity is the fabric's contract on every legacy
// preset plus both post-legacy sweep kinds: a sweep split across two
// workers merges to the exact bytes of an uninterrupted local run.
func TestGoldenShardedByteIdentity(t *testing.T) {
	for _, preset := range []string{"HBM2_8Gb", "HBM2E_16Gb", "HBM3_16Gb"} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			assertShardedIdentity(t, testSpec(t, preset))
		})
	}
	for _, spec := range newKindSpecs(t) {
		spec := spec
		t.Run(spec.Kind, func(t *testing.T) {
			t.Parallel()
			assertShardedIdentity(t, spec)
		})
	}
}

// frontService stands up the coordinator-fronted service: a server whose
// Distribute hook shards submissions across the peers through client.
func frontService(t *testing.T, peers []string, client *http.Client, retry Policy) (*serve.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Peers: peers, Shards: 4, Retry: retry, Client: client,
		ShardTimeout: 30 * time.Second, Log: telemetry.NewLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 1, Jobs: 2, Log: telemetry.NewLogger(t.Logf), Distribute: c.Distribute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	return srv, ts
}

// submitAndFetch pushes spec through the front service and returns the
// finished stream bytes.
func submitAndFetch(t *testing.T, url string, spec serve.SweepSpec) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Fingerprint string `json:"fingerprint"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(url + "/sweeps/" + sub.Fingerprint + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "cached" {
			break
		}
		if st.Status == serve.StatusFailed {
			t.Fatalf("sweep failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %q", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(url + "/sweeps/" + sub.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestChaosConvergence injects every failure mode the fabric hardens
// against - dropped connections, 5xx answers, torn shard streams, workers
// slower than the attempt deadline, and shard jobs that end failed or
// checkpointed - and demands the final stream still match an
// uninterrupted local run byte for byte.
func TestChaosConvergence(t *testing.T) {
	// tornStream cuts shard stream bodies, never the status replies after
	// them, so the byte check after EOF is what must reject the cut body.
	tornStream := func(count int) *Fault {
		return &Fault{Match: "/sweeps/sha256:", Except: "/status", Method: http.MethodGet,
			Mode: FaultTruncate, TruncateTo: 40, Count: count}
	}
	// endedAs makes the status reply after a shard's stream report a job
	// that ended in status instead of in the worker's store.
	endedAs := func(status string, count int) *Fault {
		return &Fault{Match: "/status", Method: http.MethodGet, Mode: FaultReply,
			Reply: `{"status":"` + status + `","error":"injected"}`, Count: count}
	}
	scenarios := []struct {
		name   string
		retry  Policy
		faults []*Fault
	}{
		{"drop", testPolicy(), []*Fault{
			{Match: "/sweeps", Method: http.MethodPost, Mode: FaultDrop, Count: 3},
		}},
		{"5xx", testPolicy(), []*Fault{
			{Match: "/sweeps", Method: http.MethodPost, Mode: Fault5xx, Count: 3},
		}},
		{"torn-stream", testPolicy(), []*Fault{tornStream(3)}},
		{"slow-worker", func() Policy {
			p := testPolicy()
			p.AttemptTimeout = 250 * time.Millisecond
			return p
		}(), []*Fault{
			{Match: "/sweeps", Method: http.MethodPost, Mode: FaultDelay, Delay: 2 * time.Second, Count: 2},
		}},
		{"mixed", testPolicy(), []*Fault{
			{Match: "/sweeps", Method: http.MethodPost, Mode: FaultDrop, Count: 1},
			{Match: "/sweeps", Method: http.MethodPost, Mode: Fault5xx, Count: 1},
			tornStream(1),
		}},
		{"status-failed", testPolicy(), []*Fault{endedAs(serve.StatusFailed, 2)}},
		{"status-checkpointed", testPolicy(), []*Fault{endedAs(serve.StatusCheckpointed, 2)}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			spec := testSpec(t, "")
			want := referenceRun(t, spec)
			w1, _ := newWorker(t, 2)
			w2, _ := newWorker(t, 2)
			wantHits := map[string]int{}
			for _, f := range sc.faults {
				wantHits[string(f.Mode)] += f.Count
			}
			inj := NewFaultInjector(nil, sc.faults...)
			_, front := frontService(t, []string{w1, w2}, &http.Client{Transport: inj}, sc.retry)
			got := submitAndFetch(t, front.URL, spec)
			if !bytes.Equal(got, want) {
				t.Errorf("stream under %s faults (%d bytes) diverges from local run (%d bytes)", sc.name, len(got), len(want))
			}
			// Every fault landed, and every cut body was a shard stream.
			gotHits := map[string]int{}
			for _, hit := range inj.Hits() {
				mode, req, _ := strings.Cut(hit, " ")
				gotHits[mode]++
				if FaultMode(mode) == FaultTruncate && (!strings.HasPrefix(req, "GET /sweeps/sha256:") || strings.HasSuffix(req, "/status")) {
					t.Errorf("truncation landed on %q, not on a shard stream", req)
				}
			}
			for mode, n := range wantHits {
				if gotHits[mode] != n {
					t.Errorf("scenario %s injected %d %s faults, want %d (hits %v)", sc.name, gotHits[mode], mode, n, inj.Hits())
				}
			}
		})
	}
}

// TestCrashTornSpoolIsNotMerged: a worker restarted after a crash can
// hold a shard spool whose tail the file system zero-filled. Its live tail
// streams those bytes before the resumed run truncates and rewrites them,
// and the body still has the stored object's length and line count. The
// coordinator must reject it as a torn stream and merge the stored bytes.
func TestCrashTornSpoolIsNotMerged(t *testing.T) {
	t.Parallel()
	spec := testSpec(t, "")
	want := referenceRun(t, spec)
	sw, err := serve.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard := spec
	shard.Shard = &serve.ShardSpec{Start: 0, End: sw.Cells}
	shardBytes := referenceRun(t, shard)
	// Header and first record intact, then zeros where the second record
	// starts: no newline is lost or gained.
	hdr := bytes.IndexByte(shardBytes, '\n') + 1
	rec := hdr + bytes.IndexByte(shardBytes[hdr:], '\n') + 1
	torn := append(append([]byte(nil), shardBytes[:rec]...), make([]byte, 8)...)

	dir := t.TempDir()
	spoolDir := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	shardFP := core.ShardFingerprint(sw.Fingerprint, 0, sw.Cells)
	if err := os.WriteFile(filepath.Join(spoolDir, strings.TrimPrefix(shardFP, "sha256:")+".jsonl"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 1, Jobs: 2, Log: telemetry.NewLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })

	// Hold the worker's only slot, so the shard waits in its queue while
	// the coordinator's tail streams the torn spool.
	busy := `{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0,1,2,3],"Rows":` + intsJSON(core.SampleRows(48)) + `,"Patterns":["Rowstripe0","Checkered0"],"Reps":2}}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(busy))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("busy sweep submit: %d", resp.StatusCode)
	}

	c, err := New(Config{Peers: []string{ts.URL}, Shards: 1, Retry: testPolicy(), Log: telemetry.NewLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	if err := c.Distribute(context.Background(), sw, merged); err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged sweep (%d bytes) diverges from the local run (%d bytes): the crash-torn tail was merged", len(got), len(want))
	}
}

// TestAllWorkersDeadFallsBackLocal: with every peer unreachable the
// coordinator quarantines the whole pool and the serving layer degrades
// to ordinary local execution - same bytes, no distribution.
func TestAllWorkersDeadFallsBackLocal(t *testing.T) {
	t.Parallel()
	spec := testSpec(t, "")
	want := referenceRun(t, spec)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gone", http.StatusServiceUnavailable)
	}))
	deadURL := dead.URL
	dead.Close()
	_, front := frontService(t, []string{deadURL}, nil, testPolicy())
	got := submitAndFetch(t, front.URL, spec)
	if !bytes.Equal(got, want) {
		t.Error("local-fallback stream diverges from the reference run")
	}
}

// swapHandler lets a worker die and be replaced behind a stable URL.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// TestWorkerDrainResumesOnRestart is the SIGTERM-under-load drill: a
// worker is drained mid-shard, its spool keeps the valid record prefix,
// and a restarted worker on the same store resumes that prefix when the
// coordinator's retry resubmits - converging to the reference bytes.
// Exercised at engine parallelism 1, 2, and 8.
func TestWorkerDrainResumesOnRestart(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			t.Parallel()
			// Big enough that the drain reliably lands mid-shard: 4 channels
			// x 48 rows x 2 patterns x 4 reps.
			raw := `{"kind":"ber","chips":[0],"identity_mapping":true,
				"config":{"Channels":[0,1,2,3],"Rows":` + intsJSON(core.SampleRows(48)) + `,"Patterns":["Rowstripe0","Checkered0"],"Reps":4}}`
			var spec serve.SweepSpec
			if err := json.Unmarshal([]byte(raw), &spec); err != nil {
				t.Fatal(err)
			}
			want := referenceRun(t, spec)

			dir := t.TempDir()
			newServer := func() *serve.Server {
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := serve.New(serve.Config{Store: st, Workers: 2, Jobs: jobs, Log: telemetry.NewLogger(t.Logf)})
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
			sh := &swapHandler{}
			first := newServer()
			sh.set(first.Handler())
			ts := httptest.NewServer(sh)
			defer ts.Close()

			_, front := frontService(t, []string{ts.URL}, nil, Policy{
				MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond})

			fetched := make(chan []byte, 1)
			go func() { fetched <- submitAndFetch(t, front.URL, spec) }()

			// Kill the worker once shard records are actually spooling.
			spoolGlob := filepath.Join(dir, "spool", "*.jsonl")
			deadline := time.Now().Add(30 * time.Second)
			var spools []string
			for {
				spools, _ = filepath.Glob(spoolGlob)
				if grown(spools) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no shard ever started spooling on the worker")
				}
				time.Sleep(2 * time.Millisecond)
			}
			sh.set(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "worker restarting", http.StatusServiceUnavailable)
			}))
			first.Drain()

			// The drained spool must be a valid checkpoint prefix.
			resumable := 0
			for _, sp := range spools {
				f, err := os.Open(sp)
				if err != nil {
					continue
				}
				cp, err := core.ResumeFrom(f)
				f.Close()
				if err == nil && cp.Records() > 0 {
					resumable++
				}
			}
			if resumable == 0 {
				t.Log("drain landed before any complete record; resume covers the header only")
			}

			// Restart on the same store: the resubmitted shard resumes.
			second := newServer()
			defer second.Drain()
			sh.set(second.Handler())

			select {
			case got := <-fetched:
				if !bytes.Equal(got, want) {
					t.Errorf("post-restart stream (%d bytes) diverges from local run (%d bytes)", len(got), len(want))
				}
			case <-time.After(90 * time.Second):
				t.Fatal("sweep never completed after the worker restart")
			}
		})
	}
}

// grown reports whether any spool file holds bytes yet.
func grown(paths []string) bool {
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// TestSplitPlan pins the shard arithmetic: contiguous, exhaustive,
// near-equal ranges.
func TestSplitPlan(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		cells, n int
		want     []serve.ShardSpec
	}{
		{12, 4, []serve.ShardSpec{{Start: 0, End: 3}, {Start: 3, End: 6}, {Start: 6, End: 9}, {Start: 9, End: 12}}},
		{5, 2, []serve.ShardSpec{{Start: 0, End: 3}, {Start: 3, End: 5}}},
		{2, 8, []serve.ShardSpec{{Start: 0, End: 1}, {Start: 1, End: 2}}},
		{3, 1, []serve.ShardSpec{{Start: 0, End: 3}}},
	} {
		got := splitPlan(tc.cells, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("splitPlan(%d, %d) = %v, want %v", tc.cells, tc.n, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitPlan(%d, %d)[%d] = %v, want %v", tc.cells, tc.n, i, got[i], tc.want[i])
			}
		}
	}
}
