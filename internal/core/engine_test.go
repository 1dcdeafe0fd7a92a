package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hbmrd/internal/pattern"
)

// engineBERConfig is the shared workload for the engine tests: multiple
// channels and rows so the sweep has enough cells to shuffle across
// workers, plus masks so "byte-identical" covers byte-slice payloads.
func engineBERConfig() BERConfig {
	return BERConfig{
		Channels:     []int{0, 1, 2, 3},
		Rows:         SampleRows(6),
		Patterns:     []pattern.Pattern{pattern.Rowstripe0, pattern.Checkered0},
		Reps:         1,
		CollectMasks: true,
	}
}

// TestSweepDeterministicAcrossJobs: the same config must produce
// byte-identical record slices no matter how many workers execute it.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	t.Parallel()
	base, err := RunBERContext(context.Background(), smallFleet(t, 0, 1), engineBERConfig(), WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("no records")
	}
	for _, jobs := range []int{2, 8} {
		got, err := RunBERContext(context.Background(), smallFleet(t, 0, 1), engineBERConfig(), WithJobs(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("-jobs %d diverged from -jobs 1", jobs)
		}
	}
}

// cancelSink cancels a context after a fixed number of completed cells
// (after) or of emitted records (afterRecords), whichever is set.
type cancelSink struct {
	cancel       context.CancelFunc
	after        int
	afterRecords int
	seen         int
	total        int
	finished     error
	records      []any
}

func (s *cancelSink) Start(total int) { s.total = total }
func (s *cancelSink) Progress(done, total int) {
	s.seen = done
	if done == s.after {
		s.cancel()
	}
}
func (s *cancelSink) Record(rec any) {
	s.records = append(s.records, rec)
	if len(s.records) == s.afterRecords {
		s.cancel()
	}
}
func (s *cancelSink) Finish(err error) { s.finished = err }

// TestSweepCancellation: a cancelled sweep returns ctx.Err() promptly
// (queued cells are dropped, not drained), the sink keeps the plan-order
// prefix it already received, and a fresh context afterwards re-runs the
// same config to byte-identical results.
func TestSweepCancellation(t *testing.T) {
	t.Parallel()
	cfg := engineBERConfig()
	cfg.Rows = SampleRows(24)
	cfg.Reps = 2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel, after: 2}
	start := time.Now()
	recs, err := RunBERContext(ctx, smallFleet(t, 0), cfg, WithJobs(2), WithSink(sink))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if recs != nil {
		t.Error("cancelled sweep returned records")
	}
	if !errors.Is(sink.finished, context.Canceled) {
		t.Errorf("sink.Finish got %v, want context.Canceled", sink.finished)
	}
	// Promptness, twice over: well under any full-run duration, and with
	// most of the plan's cells never executed (2 in-flight cells may
	// still finish after the cancel fires).
	if deadline := 20 * time.Second; elapsed > deadline {
		t.Errorf("cancellation took %v, deadline %v", elapsed, deadline)
	}
	if sink.total == 0 || sink.seen > sink.after+2 {
		t.Errorf("completed %d of %d cells after cancelling at %d", sink.seen, sink.total, sink.after)
	}

	// Resumed: the identical config on a fresh context must complete and
	// match a serial baseline exactly.
	baseline, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg, WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg, WithJobs(4))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Error("resumed run diverged from baseline")
	}
	// The partial stream is a strict plan-order prefix of the full set.
	for i, r := range sink.records {
		if !reflect.DeepEqual(r, baseline[i]) {
			t.Fatalf("streamed record %d is not the plan-order prefix", i)
		}
	}
}

// TestSweepPreCancelled: an already-done context runs nothing.
func TestSweepPreCancelled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &cancelSink{cancel: func() {}}
	recs, err := RunBERContext(ctx, smallFleet(t, 0), engineBERConfig(), WithSink(sink))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if recs != nil || len(sink.records) != 0 || sink.seen != 0 {
		t.Errorf("pre-cancelled sweep did work: %d recs, %d streamed, %d cells", len(recs), len(sink.records), sink.seen)
	}
}

// recordSink collects the record stream and progress bookkeeping.
type recordSink struct {
	started   int
	total     int
	progress  int
	lastDone  int
	records   []any
	finishes  int
	finishErr error
}

func (s *recordSink) Start(total int) { s.started++; s.total = total }
func (s *recordSink) Progress(done, total int) {
	s.progress++
	s.lastDone = done
}
func (s *recordSink) Record(rec any)   { s.records = append(s.records, rec) }
func (s *recordSink) Finish(err error) { s.finishes++; s.finishErr = err }

// TestSweepSinkStreamsPlanOrder: with maximum worker interleaving, the
// sink still receives every record in exactly the order of the returned
// slice, and the lifecycle callbacks fire once each.
func TestSweepSinkStreamsPlanOrder(t *testing.T) {
	t.Parallel()
	sink := &recordSink{}
	recs, err := RunHCFirstContext(context.Background(), smallFleet(t, 0), HCFirstConfig{
		Channels: []int{0, 1, 2, 3, 4, 5, 6, 7},
		Rows:     SampleRows(3),
		Patterns: []pattern.Pattern{pattern.Checkered0},
		Reps:     1,
	}, WithJobs(8), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if sink.started != 1 || sink.finishes != 1 || sink.finishErr != nil {
		t.Fatalf("lifecycle: %d starts, %d finishes (err %v)", sink.started, sink.finishes, sink.finishErr)
	}
	if sink.total != 8*3 || sink.lastDone != sink.total || sink.progress != sink.total {
		t.Errorf("progress: total %d, last %d, callbacks %d", sink.total, sink.lastDone, sink.progress)
	}
	if len(sink.records) != len(recs) {
		t.Fatalf("streamed %d records, returned %d", len(sink.records), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(sink.records[i], recs[i]) {
			t.Fatalf("streamed record %d out of plan order", i)
		}
	}
}

// TestSweepErrorStopsQueuedCells: a failing cell aborts the sweep with a
// wrapped error instead of draining the remaining plan.
func TestSweepErrorStopsQueuedCells(t *testing.T) {
	t.Parallel()
	sink := &recordSink{}
	cfg := engineBERConfig()
	cfg.Rows = []int{0} // victim at the bank edge: initPattern must fail
	_, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg, WithSink(sink))
	if err == nil {
		t.Fatal("edge-row sweep succeeded")
	}
	if !errors.Is(sink.finishErr, err) {
		t.Errorf("sink.Finish got %v, want %v", sink.finishErr, err)
	}
}

// failingSink reports a write failure after it has seen one record.
type failingSink struct {
	recordSink
	err error
}

func (s *failingSink) Err() error {
	if len(s.records) > 0 {
		return s.err
	}
	return nil
}

// TestSweepAbortsOnSinkFailure: a sink that reports a persistent write
// error (disk full) stops the sweep early instead of computing the whole
// plan into a dead stream.
func TestSweepAbortsOnSinkFailure(t *testing.T) {
	t.Parallel()
	sink := &failingSink{err: errors.New("no space left on device")}
	cfg := engineBERConfig()
	cfg.Rows = SampleRows(16)
	recs, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg, WithJobs(2), WithSink(sink))
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("err = %v, want the sink's write failure", err)
	}
	if recs != nil {
		t.Error("failed sweep returned records")
	}
	if total := len(cfg.Channels) * len(cfg.Rows); sink.lastDone >= total {
		t.Errorf("sweep ran all %d cells despite the dead sink", total)
	}
}

// TestRunnersAcceptContext smoke-tests every remaining Run*Context entry
// point under a background context at tiny scale, pinning determinism
// across worker counts for each record type.
func TestRunnersAcceptContext(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("covers every runner; slow at any scale")
	}
	ctx := context.Background()

	t.Run("hcnth", func(t *testing.T) {
		t.Parallel()
		cfg := HCNthConfig{Channels: []int{0}, Rows: SampleRows(3), Patterns: []pattern.Pattern{pattern.Checkered0}, MaxFlips: 3}
		a, err := RunHCNthContext(ctx, smallFleet(t, 1), cfg, WithJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunHCNthContext(ctx, smallFleet(t, 1), cfg, WithJobs(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("HCNth diverged across worker counts")
		}
	})

	t.Run("variability", func(t *testing.T) {
		t.Parallel()
		cfg := VariabilityConfig{Rows: SampleRows(2), Iterations: 4}
		a, err := RunVariabilityContext(ctx, smallFleet(t, 0, 1), cfg, WithJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunVariabilityContext(ctx, smallFleet(t, 0, 1), cfg, WithJobs(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("Variability diverged across worker counts")
		}
	})

	t.Run("rowpress", func(t *testing.T) {
		t.Parallel()
		berCfg := RowPressBERConfig{Channels: []int{0, 1}, Rows: RegionRows(1)}
		a, err := RunRowPressBERContext(ctx, smallFleet(t, 3), berCfg, WithJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunRowPressBERContext(ctx, smallFleet(t, 3), berCfg, WithJobs(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("RowPressBER diverged across worker counts")
		}
		hcCfg := RowPressHCConfig{Channels: []int{0, 1}, Rows: SampleRows(2)}
		c, err := RunRowPressHCContext(ctx, smallFleet(t, 2), hcCfg, WithJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		d, err := RunRowPressHCContext(ctx, smallFleet(t, 2), hcCfg, WithJobs(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, d) {
			t.Error("RowPressHC diverged across worker counts")
		}
	})

	t.Run("bypass", func(t *testing.T) {
		t.Parallel()
		cfg := BypassConfig{Victims: []int{6000}, DummyCounts: []int{4}, AggActs: []int{26}, Windows: 2048}
		a, err := RunBypassContext(ctx, smallFleet(t, 0), cfg, WithJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunBypassContext(ctx, smallFleet(t, 0), cfg, WithJobs(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("Bypass diverged across worker counts")
		}
	})

	t.Run("aging", func(t *testing.T) {
		t.Parallel()
		cfg := AgingConfig{BER: BERConfig{Channels: []int{0}, Rows: SampleRows(4), Reps: 1}}
		a, err := RunAgingContext(ctx, smallFleet(t, 4), cfg, WithJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunAgingContext(ctx, smallFleet(t, 4), cfg, WithJobs(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("Aging diverged across worker counts")
		}
	})
}
