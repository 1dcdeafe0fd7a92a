package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/serve"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// benchSpec is the fabric benchmark workload: 12 plan cells, with each
// iteration's rows offset so every iteration is a distinct fingerprint
// (otherwise iteration two would measure the dedup cache, not sweep
// throughput).
func benchSpec(b *testing.B, iter int) serve.SweepSpec {
	b.Helper()
	// Keep rows well inside the bank (hammering needs neighbours on both
	// sides) while still giving every iteration a distinct row set.
	rows := core.SampleRows(6)
	for i := range rows {
		rows[i] = 64 + (rows[i]+iter*7)%(hbm.NumRows-128)
	}
	raw := fmt.Sprintf(`{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0,1],"Rows":%s,"Patterns":["Rowstripe0"],"Reps":1}}`, intsJSON(rows))
	var s serve.SweepSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkShardMerge measures the coordinator's merge path in
// isolation: reconstructing the parent header from a shard header and
// assembling the shard payloads into the final spool file.
func BenchmarkShardMerge(b *testing.B) {
	spec := benchSpec(b, 0)
	sw, err := serve.Resolve(spec)
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(filepath.Join(b.TempDir(), "ref.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Run(context.Background(), core.WithSink(core.NewJSONLFileSink(f))); err != nil {
		b.Fatal(err)
	}
	f.Close()
	full, err := os.ReadFile(f.Name())
	if err != nil {
		b.Fatal(err)
	}
	// Carve the reference into 4 shard payloads and synthesize each
	// shard's header, exactly what runShard hands the merge.
	nl := bytes.IndexByte(full, '\n')
	var parentHeader core.SweepHeader
	if err := json.Unmarshal(full[:nl], &parentHeader); err != nil {
		b.Fatal(err)
	}
	lines := bytes.SplitAfter(full[nl+1:], []byte("\n"))
	lines = lines[:len(lines)-1] // trailing empty split
	ranges := splitPlan(sw.Cells, 4)
	perCell := len(lines) / sw.Cells
	shards := make([]shardResult, len(ranges))
	for i, r := range ranges {
		h := parentHeader
		h.Parent = sw.Fingerprint
		h.ShardStart, h.ShardEnd = r.Start, r.End
		h.Fingerprint = core.ShardFingerprint(sw.Fingerprint, r.Start, r.End)
		h.Cells = r.End - r.Start
		shards[i] = shardResult{header: h,
			payload: bytes.Join(lines[r.Start*perCell:r.End*perCell], nil)}
	}
	spool := filepath.Join(b.TempDir(), "merged.jsonl")

	b.SetBytes(int64(len(full)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		header, err := parentHeaderBytes(shards[0].header, sw)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		buf.Write(header)
		for _, s := range shards {
			buf.Write(s.payload)
		}
		if err := os.WriteFile(spool, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	got, err := os.ReadFile(spool)
	if err != nil || !bytes.Equal(got, full) {
		b.Fatalf("merged bytes diverge from the reference (err %v)", err)
	}
}

// fullBenchSpec is the -full-scale fabric workload: 96 plan cells (four
// channels x 24 rows) against the demo spec's 12 - the scale at which
// distribution has to amortize its dispatch, stream, and merge overhead.
func fullBenchSpec(b *testing.B, iter int) serve.SweepSpec {
	b.Helper()
	rows := core.SampleRows(24)
	for i := range rows {
		rows[i] = 64 + (rows[i]+iter*7)%(hbm.NumRows-128)
	}
	raw := fmt.Sprintf(`{"kind":"ber","chips":[0],"identity_mapping":true,
		"config":{"Channels":[0,1,2,3],"Rows":%s,"Patterns":["Rowstripe0"],"Reps":1}}`, intsJSON(rows))
	var s serve.SweepSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFabricSweep compares sweep throughput local vs distributed
// across two in-process workers - the fabric's dispatch, stream, and
// merge overhead against the sweeps it parallelizes - at the demo scale
// (12 cells) and at -full scale (96 cells, under full/).
func BenchmarkFabricSweep(b *testing.B) {
	newBenchWorker := func(b *testing.B) string {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(serve.Config{Store: st, Workers: 2, Jobs: 2, Log: telemetry.NewLogger(func(string, ...any) {})})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() { ts.Close(); srv.Drain() })
		return ts.URL
	}

	runLocal := func(b *testing.B, spec func(*testing.B, int) serve.SweepSpec) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			sw, err := serve.Resolve(spec(b, i))
			if err != nil {
				b.Fatal(err)
			}
			f, err := os.Create(filepath.Join(dir, "out.jsonl"))
			if err != nil {
				b.Fatal(err)
			}
			if err := sw.Run(context.Background(), core.WithSink(core.NewJSONLFileSink(f))); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	}
	runFabric := func(b *testing.B, spec func(*testing.B, int) serve.SweepSpec, shards int) {
		c, err := New(Config{Peers: []string{newBenchWorker(b), newBenchWorker(b)}, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw, err := serve.Resolve(spec(b, i))
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Distribute(context.Background(), sw, filepath.Join(dir, "merged.jsonl")); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("local", func(b *testing.B) { runLocal(b, benchSpec) })
	b.Run("workers=2", func(b *testing.B) { runFabric(b, benchSpec, 4) })
	b.Run("full/local", func(b *testing.B) { runLocal(b, fullBenchSpec) })
	b.Run("full/workers=2", func(b *testing.B) { runFabric(b, fullBenchSpec, 8) })
}
