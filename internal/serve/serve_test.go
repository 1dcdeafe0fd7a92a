package serve

import (
	"bufio"
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
	"sync"
	"testing"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/query"
	"hbmrd/internal/rowmap"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// tinySpec is a sweep small enough to finish in milliseconds: one chip,
// one channel, two rows, one pattern.
func tinySpec() string {
	return `{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0],"Rows":[2000,3000],"Patterns":["Rowstripe0"],"Reps":1}}`
}

func newTestService(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Workers: 1, Jobs: 2, Log: telemetry.NewLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSpec(t *testing.T, url, spec string) submitResponse {
	t.Helper()
	resp, err := http.Post(url+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: %d %s", resp.StatusCode, body)
	}
	var out submitResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("POST /sweeps response %q: %v", body, err)
	}
	return out
}

func waitForStatus(t *testing.T, url, fp string, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/sweeps/" + fp + "/status")
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
		for _, w := range want {
			if st.Status == w {
				return st.Status
			}
		}
		if st.Status == StatusFailed {
			t.Fatalf("sweep failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %v", fp, want)
	return ""
}

// TestServiceSubmitStreamAndCacheHit is the service's aha flow: submit a
// spec, stream its NDJSON, resubmit the identical spec and get it served
// from the store without re-execution.
func TestServiceSubmitStreamAndCacheHit(t *testing.T) {
	srv, ts := newTestService(t, t.TempDir())
	defer srv.Drain()

	first := postSpec(t, ts.URL, tinySpec())
	if first.Fingerprint == "" || first.Kind != "ber" {
		t.Fatalf("submit response = %+v", first)
	}
	if first.Status != StatusQueued && first.Status != StatusRunning {
		t.Fatalf("first submit status = %q", first.Status)
	}

	// GET streams the sweep - tailing it live if still running - and ends
	// with the complete record set.
	resp, err := http.Get(ts.URL + "/sweeps/" + first.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	assertBERStream(t, body, first.Fingerprint)

	waitForStatus(t, ts.URL, first.Fingerprint, "cached")

	// The identical spec is a cache hit, not a new job.
	second := postSpec(t, ts.URL, tinySpec())
	if second.Status != "cached" {
		t.Errorf("identical resubmit status = %q, want cached", second.Status)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("identical specs fingerprint differently: %s vs %s", first.Fingerprint, second.Fingerprint)
	}

	// The cache-hit stream is byte-identical to the live one.
	resp, err = http.Get(ts.URL + "/sweeps/" + first.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, body) {
		t.Error("stored stream diverges from the live stream")
	}

	// A different spec is a different sweep.
	other := postSpec(t, ts.URL, `{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0],"Rows":[2000],"Patterns":["Rowstripe0"],"Reps":1}}`)
	if other.Fingerprint == first.Fingerprint {
		t.Error("different specs share a fingerprint")
	}
	waitForStatus(t, ts.URL, other.Fingerprint, "cached")
}

// assertBERStream checks an NDJSON body: header first with the right
// fingerprint, then the sweep's records.
func assertBERStream(t *testing.T, body []byte, fp string) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	if !sc.Scan() {
		t.Fatal("empty stream")
	}
	var h core.SweepHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Format == 0 {
		t.Fatalf("first line is not a sweep header: %s", sc.Bytes())
	}
	if h.Fingerprint != fp || h.Kind != "ber" {
		t.Errorf("header = %+v, want fingerprint %s", h, fp)
	}
	records := 0
	for sc.Scan() {
		var rec core.BERRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		records++
	}
	// Two rows x (one pattern + WCDP).
	if records != 4 {
		t.Errorf("streamed %d records, want 4", records)
	}
}

func TestServiceRejectsBadSpecs(t *testing.T) {
	srv, ts := newTestService(t, t.TempDir())
	defer srv.Drain()
	for _, spec := range []string{
		`{"kind":"nope"}`,
		`{"kind":"ber","config":{"Rowz":[1]}}`,
		`{"kind":"ber","geometry":"HBM9"}`,
		`{"kind":"ber","chips":[99]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", spec, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/sweeps/sha256:aabbccddeeff/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint status: %d, want 404", resp.StatusCode)
	}
}

// TestServiceDrainCheckpointsAndResumes: SIGTERM-style drain cancels the
// in-flight sweep leaving a valid checkpoint spool; a restarted service
// resumes it on resubmission and the final stream is byte-identical to
// an uninterrupted run of the same spec.
func TestServiceDrainCheckpointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	// Enough cells that a drain lands mid-sweep: 4 channels x 24 rows.
	spec := `{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0,1,2,3],"Rows":` + intsJSON(sampleRows24()) + `,"Patterns":["Rowstripe0","Checkered0"],"Reps":2}}`

	srv, ts := newTestService(t, dir)
	first := postSpec(t, ts.URL, spec)
	fp := first.Fingerprint

	// Wait until records are actually spooling, then drain.
	spool := srv.spoolPath(fp)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(spool); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never started spooling")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Drain()
	ts.Close()

	finished := srv.store.Has(fp)
	if !finished {
		// The expected path: a checkpoint spool with a valid prefix.
		f, err := os.Open(spool)
		if err != nil {
			t.Fatalf("drained service left no spool: %v", err)
		}
		cp, err := core.ResumeFrom(f)
		f.Close()
		if err != nil {
			t.Fatalf("drained spool is not a valid checkpoint: %v", err)
		}
		t.Logf("drained with %d checkpointed records", cp.Records())
	} else {
		t.Log("sweep finished before the drain; resubmission still must hit the store")
	}

	// Restart on the same store and resubmit: the sweep resumes (or hits
	// the store) and completes.
	srv2, ts2 := newTestService(t, dir)
	defer srv2.Drain()
	postSpec(t, ts2.URL, spec)
	waitForStatus(t, ts2.URL, fp, "cached")
	resp, err := http.Get(ts2.URL + "/sweeps/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same spec executed uninterrupted, straight through
	// the resolved runner.
	sweep, err := Resolve(specValue(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Run(context.Background(), core.WithSink(core.NewJSONLFileSink(rf))); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed service stream (%d bytes) diverges from uninterrupted run (%d bytes)", len(got), len(want))
	}
}

// TestSubmitDuringDrain races submissions against Drain. A submit must
// never send on the closed job queue: each one gets a clean answer -
// queued, or 503 once the drain has begun - and a submit after Drain
// returns is a 503. Run it under -race.
func TestSubmitDuringDrain(t *testing.T) {
	client := &http.Client{Timeout: 10 * time.Second}
	for round := 0; round < 10; round++ {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: st, Workers: 1, Jobs: 2, Log: telemetry.NewLogger(func(string, ...any) {})})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(row int) {
				defer wg.Done()
				spec := fmt.Sprintf(`{"kind":"ber","chips":[0],"identity_mapping":true,
					"config":{"Channels":[0],"Rows":[%d],"Patterns":["Rowstripe0"],"Reps":1}}`, row)
				<-start
				resp, err := client.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Errorf("submit during drain: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("submit during drain: status %d, want 202 or 503", resp.StatusCode)
				}
			}(2000 + 100*round + i)
		}
		close(start)
		srv.Drain()
		wg.Wait()

		resp, err := client.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(tinySpec()))
		if err != nil {
			t.Errorf("submit after drain: %v", err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("submit after drain: status %d, want 503", resp.StatusCode)
		}
		if t.Failed() {
			// A handler that panicked while holding the server's lock never
			// returns, and ts.Close would wait for it forever.
			return
		}
		ts.Close()
	}
}

// TestServiceRecoversFromRejectedCheckpoint: a spool whose checkpoint the
// runner refuses (aging cannot resume; the same happens for spools from
// an older code generation) must not poison its fingerprint - the
// service restarts the sweep from scratch and completes it.
func TestServiceRecoversFromRejectedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := `{"kind":"aging","chips":[2],"identity_mapping":true,
		"config":{"BER":{"Channels":[0],"Rows":[2000,3000],"Reps":1}}}`
	sweep, err := Resolve(specValue(t, spec))
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the drained state: a spool holding only the sweep's
	// header, exactly what a SIGTERM during an aging run leaves behind.
	spoolDir := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf(`{"hbmrd_sweep":1,"kind":"aging","fingerprint":"%s","cells":4,"generation":%d}`+"\n",
		sweep.Fingerprint, core.CodeGeneration)
	spool := filepath.Join(spoolDir, strings.TrimPrefix(sweep.Fingerprint, "sha256:")+".jsonl")
	if err := os.WriteFile(spool, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestService(t, dir)
	defer srv.Drain()
	got := postSpec(t, ts.URL, spec)
	if got.Fingerprint != sweep.Fingerprint {
		t.Fatalf("fingerprint %s, want %s", got.Fingerprint, sweep.Fingerprint)
	}
	waitForStatus(t, ts.URL, sweep.Fingerprint, "cached")
}

func specValue(t *testing.T, spec string) SweepSpec {
	t.Helper()
	var s SweepSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleRows24() []int {
	return core.SampleRows(24)
}

func intsJSON(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestServiceHealthz: the health endpoint reports the operational gauges
// a deployment watches - store path, live jobs, catalog size.
func TestServiceHealthz(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, ts := newTestService(t, dir)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK           bool   `json:"ok"`
		Store        string `json:"store"`
		LiveJobs     int    `json:"live_jobs"`
		StoredSweeps int    `json:"stored_sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Store != dir {
		t.Errorf("healthz = %+v, want ok with store %s", h, dir)
	}
	if h.LiveJobs != 0 || h.StoredSweeps != 0 {
		t.Errorf("fresh service healthz = %+v, want zero jobs and sweeps", h)
	}
}

// ingestTinySweep runs the -out flow into the server's store and returns
// the stored fingerprint: the acceptance path where a CLI-produced sweep
// is finalized into the store the service queries.
func ingestTinySweep(t *testing.T, dir string) string {
	t.Helper()
	fleet, err := core.NewFleet([]int{0}, hbm.WithMapper(rowmap.Identity{NumRows: hbm.NumRows}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewJSONLFileSink(f)
	if _, err := core.RunHCFirstContext(context.Background(), fleet, core.HCFirstConfig{
		Channels: []int{0, 1}, Rows: core.SampleRows(2), Reps: 1,
	}, core.WithSink(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := query.Ingest(st, path)
	if err != nil {
		t.Fatal(err)
	}
	return meta.Fingerprint
}

// TestServiceQueryFig5CacheHit is the acceptance criterion end to end: a
// sweep produced by the -out file sink and finalized into the store
// reproduces the Fig 5 HCfirst distribution via POST /query; the hbmrd
// query CLI path (a query.Engine over the same store) returns
// byte-identical aggregate output; and the second identical POST /query
// is served from the derived-result cache without re-reading the raw
// records.
func TestServiceQueryFig5CacheHit(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	srv, ts := newTestService(t, dir)
	fp := ingestTinySweep(t, dir)

	spec, err := query.FigureSpec("fig5", fp)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	post := func() (string, []byte) {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(specJSON))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Hbmrd-Query-Cache"), body
	}

	cache1, body1 := post()
	if cache1 != "miss" {
		t.Errorf("first query cache = %q, want miss", cache1)
	}
	var agg query.Aggregate
	if err := json.Unmarshal(body1, &agg); err != nil {
		t.Fatalf("aggregate JSON: %v", err)
	}
	if agg.Kind != "hcfirst" || len(agg.Groups) == 0 {
		t.Fatalf("fig5 aggregate = kind %q, %d groups", agg.Kind, len(agg.Groups))
	}
	rawAfterFirst := srv.queries.RawReads()
	if rawAfterFirst != 1 {
		t.Errorf("first query made %d raw reads, want 1", rawAfterFirst)
	}

	// The CLI path: an independent engine over the same store.
	cliStore, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cli := query.NewEngine(cliStore)
	res, err := cli.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.JSON, body1) {
		t.Error("hbmrd query aggregate bytes differ from POST /query bytes")
	}

	cache2, body2 := post()
	if cache2 != "hit" {
		t.Errorf("second query cache = %q, want hit", cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit returned different bytes")
	}
	if got := srv.queries.RawReads(); got != rawAfterFirst {
		t.Errorf("cache hit re-read the raw records (%d raw reads)", got)
	}

	// CSV form is derived from the same aggregate deterministically.
	resp, err := http.Post(ts.URL+"/query?format=csv", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	csvBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(csvBody), "chip,pattern_label,count,") {
		t.Errorf("CSV query: %d %q", resp.StatusCode, csvBody)
	}

	// Bad specs are client errors; unknown sweeps are 404s.
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sweep":"`+fp+`","metric":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad metric: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sweep":"sha256:`+strings.Repeat("ef", 32)+`","metric":"hcfirst"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: %d, want 404", resp.StatusCode)
	}
}

// TestServiceRecordsAndCatalog: GET /sweeps/<fp>/records serves typed
// decoded records, and GET /sweeps?kind= filters the catalog.
func TestServiceRecordsAndCatalog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, ts := newTestService(t, dir)
	fp := ingestTinySweep(t, dir)

	resp, err := http.Get(ts.URL + "/sweeps/" + fp + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET records: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		Header  core.SweepHeader     `json:"header"`
		Records []core.HCFirstRecord `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Header.Fingerprint != fp || len(doc.Records) == 0 {
		t.Fatalf("records doc: header %+v, %d records", doc.Header, len(doc.Records))
	}
	for _, r := range doc.Records {
		if r.Chip != 0 {
			t.Fatalf("decoded record has chip %d, want 0", r.Chip)
		}
	}

	for _, tc := range []struct {
		kind string
		want int
	}{{"hcfirst", 1}, {"ber", 0}} {
		resp, err := http.Get(ts.URL + "/sweeps?kind=" + tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		var list listResponse
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Stored) != tc.want {
			t.Errorf("GET /sweeps?kind=%s: %d stored, want %d", tc.kind, len(list.Stored), tc.want)
		}
	}

	if resp, err := http.Get(ts.URL + "/sweeps/sha256:" + strings.Repeat("99", 32) + "/records"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("records of unknown sweep: %d, want 404", resp.StatusCode)
		}
	}
}

// TestSpoolHeader pins finalize's header read: an empty spool and a
// spool that does not open with a sweep header are distinct errors, and
// a header followed by a record line longer than 1 MiB still reads.
func TestSpoolHeader(t *testing.T) {
	t.Parallel()
	header := `{"hbmrd_sweep":1,"kind":"ber","fingerprint":"sha256:ab","cells":3,"generation":7}` + "\n"
	long := `{"Chip":0,"Pad":"` + strings.Repeat("x", 1<<20+17) + `"}` + "\n"
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"empty", "", "empty spool"},
		{"no header", `{"Chip":0,"Row":12}` + "\n", "has no sweep header"},
		{"not json", "garbage\n", "has no sweep header"},
		{"header then long record", header + long, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spool.jsonl")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			h, err := spoolHeader(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h.Format != 1 || h.Kind != "ber" || h.Fingerprint != "sha256:ab" || h.Cells != 3 || h.Generation != 7 {
				t.Errorf("header = %+v", h)
			}
		})
	}
}
