package fabric

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"hbmrd/internal/query"
	"hbmrd/internal/telemetry"
)

// TestMetricsEndToEnd is the observability acceptance test: a sharded
// sweep through the coordinator-fronted service followed by a repeated
// aggregation query must move the counters of every instrumented layer
// - engine, fabric, store, query, HTTP - and the deltas must be visible
// through the front service's /metrics exposition. Deliberately not
// parallel: it reads the process-wide registry before and after.
func TestMetricsEndToEnd(t *testing.T) {
	cells := telemetry.Default.Counter("hbmrd_sweep_cells_total", telemetry.L("kind", "ber"))
	dispatched := telemetry.Default.Counter("hbmrd_fabric_shards_dispatched_total")
	mergesFull := telemetry.Default.Counter("hbmrd_fabric_merges_total", telemetry.L("outcome", "full"))
	puts := telemetry.Default.Counter("hbmrd_store_puts_total")
	runs := telemetry.Default.Counter("hbmrd_query_runs_total")
	hits := telemetry.Default.Counter("hbmrd_query_cache_hits_total")
	misses := telemetry.Default.Counter("hbmrd_query_cache_misses_total")

	before := map[string]int64{
		"cells":      cells.Value(),
		"dispatched": dispatched.Value(),
		"merges":     mergesFull.Value(),
		"puts":       puts.Value(),
		"runs":       runs.Value(),
		"hits":       hits.Value(),
		"misses":     misses.Value(),
	}

	w1, _ := newWorker(t, 2)
	w2, _ := newWorker(t, 2)
	_, ts := frontService(t, []string{w1, w2}, nil, testPolicy())

	spec := testSpec(t, "")
	stream := submitAndFetch(t, ts.URL, spec)
	nl := bytes.IndexByte(stream, '\n')
	var header struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(stream[:nl], &header); err != nil {
		t.Fatal(err)
	}

	qspec, err := query.FigureSpec("fig4", header.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	qJSON, err := json.Marshal(qspec)
	if err != nil {
		t.Fatal(err)
	}
	post := func() string {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qJSON))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Hbmrd-Query-Cache")
	}
	if c := post(); c != "miss" {
		t.Errorf("first query cache = %q, want miss", c)
	}
	if c := post(); c != "hit" {
		t.Errorf("second query cache = %q, want hit", c)
	}

	// Engine: 12 plan cells executed across the worker shards (all peers
	// share this process, and so this registry). Fabric: 4 shards, one
	// full merge. Store: each worker finalizes its shards and the front
	// service finalizes the merged sweep. Query: exactly one miss then
	// one hit.
	deltas := []struct {
		name string
		got  int64
		min  int64
	}{
		{"cells", cells.Value() - before["cells"], 12},
		{"dispatched", dispatched.Value() - before["dispatched"], 4},
		{"merges_full", mergesFull.Value() - before["merges"], 1},
		{"puts", puts.Value() - before["puts"], 3},
		{"runs", runs.Value() - before["runs"], 2},
		{"hits", hits.Value() - before["hits"], 1},
		{"misses", misses.Value() - before["misses"], 1},
	}
	for _, d := range deltas {
		if d.got < d.min {
			t.Errorf("%s delta = %d, want >= %d", d.name, d.got, d.min)
		}
	}

	// The same state is scrapeable from the front service.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	expo := string(body)
	for _, want := range []string{
		"# TYPE hbmrd_sweep_cells_total counter",
		`hbmrd_sweep_cells_total{kind="ber"}`,
		"hbmrd_fabric_shards_dispatched_total",
		`hbmrd_fabric_merges_total{outcome="full"}`,
		"hbmrd_store_puts_total",
		"hbmrd_query_cache_hits_total",
		`hbmrd_http_requests_total{code="200",route="query"}`,
		`hbmrd_serve_sweeps_completed_total{status="done"}`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}
