package fabric

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"hbmrd/internal/serve"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// BenchmarkFabricOverhead prices the coordinator's control plane: one
// distributed 12-cell sweep per iteration across two in-process workers,
// so ns/op is the engine time of 12 cells plus every shard's submit,
// stream and status requests and the merge.
func BenchmarkFabricOverhead(b *testing.B) {
	newOverheadWorker := func(b *testing.B) string {
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

	c, err := New(Config{Peers: []string{newOverheadWorker(b), newOverheadWorker(b)}, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := serve.Resolve(benchSpec(b, i))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Distribute(context.Background(), sw, filepath.Join(dir, "merged.jsonl")); err != nil {
			b.Fatal(err)
		}
	}
}
