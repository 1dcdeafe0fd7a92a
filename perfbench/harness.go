package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// env is what a workload runs against: its seed-derived inputs, its
// scratch directory inside the checkout, and where results go.
type env struct {
	seed    int64
	seconds time.Duration
	dir     string
	rec     *Recorder // nil for the untraced run
	res     *results
}

// span opens op i's root span in a traced run (nil otherwise).
func (e *env) span(i int, name string) *Active {
	if e.rec == nil {
		return nil
	}
	return e.rec.Start(fmt.Sprintf("%s/%d", name, i), nil, name)
}

// setup runs build reps times in fresh directories, timing each; setup_s
// is the median. Every set-up but the last is torn down again (its files
// stay until the run ends, so no deletion lands in a later timing); the
// last one's state is returned for the measured run.
func setup[T any](e *env, reps int, build func(dir string) (T, error), teardown func(T)) (T, error) {
	var state T
	settle()
	for r := 0; r < reps; r++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", r))
		start := time.Now()
		s, err := build(dir)
		if err != nil {
			return state, fmt.Errorf("set-up %d: %w", r, err)
		}
		e.res.setupS = append(e.res.setupS, time.Since(start).Seconds())
		if r < reps-1 {
			teardown(s)
			continue
		}
		state = s
	}
	return state, nil
}

// settle runs before set-up and right before a measured window: it
// flushes the dirty data and deletions that came before (an earlier run's
// removed stores, set-up's writes), so timed fsyncs do not pay for them,
// and collects set-up's garbage.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// results collects one run's measurements. Latency series are in ms.
type results struct {
	mu sync.Mutex

	setupS         []float64
	sweepMS        []float64
	coldMS, hitMS  []float64
	cells          int64
	cellsWall      time.Duration
	storeBytes     int64
	storeRecords   int64
	attempted      int
	failedOps      map[int]bool
	failures       []string
	outputs        map[int][]byte
	digestOps      int
	lateMax        time.Duration
	memStatsTime   time.Duration // spent reading MemStats in traced ops
	layer          map[string]float64
	alloc          allocs
	httpHitReqMS   []float64 // client-side durations of traced cache-hit queries
	shardsPerSweep float64
	notes          []string
}

func newResults() *results {
	return &results{failedOps: map[int]bool{}, outputs: map[int][]byte{}, layer: map[string]float64{}}
}

// fail marks op i failed (an error, a refusal, or a failed output check).
func (r *results) fail(op int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failedOps[op] = true
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

// output hashes op i's outputs, in order, into the op's digest entry.
func (r *results) output(op int, parts ...[]byte) {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	r.mu.Lock()
	r.outputs[op] = h.Sum(nil)
	r.mu.Unlock()
}

// digest is SHA-256 over the outputs of ops [0, digestOps) in op order.
// The op set is fixed by the seed, never by how fast the run went, so
// the digest repeats across runs with the same seed.
func (r *results) digest() (string, error) {
	h := sha256.New()
	for i := 0; i < r.digestOps; i++ {
		o, ok := r.outputs[i]
		if !ok {
			return "", fmt.Errorf("op %d produced no output", i)
		}
		h.Write(o)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

func (r *results) addLatency(dst *[]float64, d time.Duration) {
	r.mu.Lock()
	*dst = append(*dst, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// stored adds one stored sweep's footprint: JSONL plus columnar twin.
func (r *results) stored(bytes int64, records int) {
	r.mu.Lock()
	r.storeBytes += bytes
	r.storeRecords += int64(records)
	r.mu.Unlock()
}

// allocs adds one measured Run's allocations.
func (r *results) allocs(a allocs) {
	r.mu.Lock()
	r.alloc.mallocs += a.mallocs
	r.alloc.bytes += a.bytes
	r.alloc.cells += a.cells
	r.memStatsTime += a.readTime
	r.mu.Unlock()
}

func (r *results) late(d time.Duration) {
	r.mu.Lock()
	if d > r.lateMax {
		r.lateMax = d
	}
	r.mu.Unlock()
}

// discardLog is the daemons' logger: the benchmark reads results, not
// service log lines.
var discardLog = telemetry.NewLogger(func(string, ...any) {})

// openStore opens a store under dir/name.
func openStore(dir, name string) (*store.Store, error) {
	return store.Open(filepath.Join(dir, name))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// routeLayers files a daemon's per-route failure counts and its dedup
// ratio (submissions answered from the store over all submissions).
func (r *results) routeLayers(s *routeStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, route := range []string{"sweeps", "sweeps_fp", "query"} {
		r.layer["serve.requests_failed."+route] = float64(s.failed[route])
	}
	if n := s.submitHit + s.submitNew; n > 0 {
		r.layer["serve.dedup_ratio"] = float64(s.submitHit) / float64(n)
	}
}

// printFailures lists the first failures on w.
func (r *results) printFailures(w io.Writer) {
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
}
