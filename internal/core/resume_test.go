package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbmrd/internal/pattern"
)

// resumeBERConfig is the shared workload for resume tests: two spannable
// dimensions (channels, rows) and two patterns, so each cell emits three
// records (two patterns + WCDP) and mid-cell truncation points exist.
func resumeBERConfig() BERConfig {
	return BERConfig{
		Channels: []int{0, 1, 2},
		Rows:     SampleRows(4),
		Patterns: []pattern.Pattern{pattern.Rowstripe0, pattern.Checkered0},
		Reps:     1,
	}
}

// runBERToFile executes one sweep into path with a file sink, returning
// the records. A positive cancelAfterRecords cancels the run once the
// file sink has received that many records; 0 runs to completion.
func runBERToFile(t *testing.T, path string, cfg BERConfig, jobs int, cancelAfterRecords int) ([]BERRecord, error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	sink := Sink(NewJSONLFileSink(f))
	if cancelAfterRecords > 0 {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = cctx
		sink = MultiSink(sink, &cancelSink{cancel: cancel, afterRecords: cancelAfterRecords})
	}
	return RunBERContext(ctx, smallFleet(t, 0), cfg, WithJobs(jobs), WithSink(sink))
}

// TestSweepResumeByteIdentity is the crash/resume contract: interrupt a
// streamed sweep at any byte offset - cancelled mid-run, torn mid-line,
// cut mid-cell - resume from the truncated JSONL, and the finished file
// must be byte-identical to an uninterrupted run, at every worker count.
func TestSweepResumeByteIdentity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := resumeBERConfig()

	fullPath := filepath.Join(dir, "full.jsonl")
	fullRecs, err := runBERToFile(t, fullPath, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bytes.IndexByte(full, '\n') + 1
	if headerEnd <= 0 {
		t.Fatal("full file has no header line")
	}

	// Truncation points: right after the header, mid-line in the first
	// record, a few spots spread through the file (record and cell
	// boundaries and everything between), and one byte short of complete.
	cuts := []int{headerEnd, headerEnd + 10}
	for _, frac := range []int{4, 3, 2} {
		cuts = append(cuts, headerEnd+(len(full)-headerEnd)/frac)
	}
	cuts = append(cuts, len(full)-1)

	for _, jobs := range []int{1, 2, 8} {
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("jobs%d-cut%d", jobs, cut), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "part.jsonl")
				if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				cp, err := ResumeFrom(f)
				if err != nil {
					t.Fatalf("ResumeFrom: %v", err)
				}
				recs, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
					WithJobs(jobs), WithSink(NewJSONLFileSink(f)), WithResume(cp))
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if !reflect.DeepEqual(recs, fullRecs) {
					t.Error("resumed records diverge from the uninterrupted run's")
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, full) {
					t.Errorf("resumed file is not byte-identical: %d bytes vs %d", len(got), len(full))
				}
			})
		}
	}
}

// TestSweepCancelThenResumeFile is the end-to-end flow the CLI performs:
// a sweep cancelled mid-run leaves a valid prefix; resuming that file
// completes it byte-identically. The cancel fires once the first cell's
// records (two patterns plus WCDP) reached the file: records stream in
// plan order, so the prefix is never empty however the workers race,
// and cell 1 runs after cell 0 on the same worker, so the run stops
// short of the full plan.
func TestSweepCancelThenResumeFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := resumeBERConfig()

	fullPath := filepath.Join(dir, "full.jsonl")
	if _, err := runBERToFile(t, fullPath, cfg, 2, 0); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	partPath := filepath.Join(dir, "part.jsonl")
	recordsPerCell := len(cfg.Patterns) + 1
	if _, err := runBERToFile(t, partPath, cfg, 2, recordsPerCell); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	part, err := os.ReadFile(partPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) == 0 || len(part) >= len(full) || !bytes.HasPrefix(full, part) {
		t.Fatalf("cancelled file (%d bytes) is not a proper prefix of the full file (%d bytes)", len(part), len(full))
	}

	f, err := os.OpenFile(partPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cp, err := ResumeFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Records() == 0 {
		t.Fatal("cancelled run checkpointed no records")
	}
	if _, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
		WithJobs(8), WithSink(NewJSONLFileSink(f)), WithResume(cp)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(partPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Error("resumed file is not byte-identical to the uninterrupted run")
	}
}

// TestSweepResumeHCFirstDynamicSpan covers the runner whose per-cell
// record count depends on measurement outcome (the WCDP record exists
// only when a pattern flipped): resume must re-derive cell boundaries
// from the prefix's own Found flags.
func TestSweepResumeHCFirstDynamicSpan(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := HCFirstConfig{
		Channels: []int{0, 1},
		Rows:     SampleRows(3),
		Patterns: []pattern.Pattern{pattern.Checkered0, pattern.Rowstripe0},
		Reps:     1,
	}

	fullPath := filepath.Join(dir, "full.jsonl")
	f, err := os.Create(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	fullRecs, err := RunHCFirstContext(context.Background(), smallFleet(t, 0), cfg,
		WithJobs(1), WithSink(NewJSONLFileSink(f)))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Cut mid-file (landing inside some cell's record group for most
	// offsets) and resume.
	cut := len(full) / 2
	partPath := filepath.Join(dir, "part.jsonl")
	if err := os.WriteFile(partPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := os.OpenFile(partPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	cp, err := ResumeFrom(pf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunHCFirstContext(context.Background(), smallFleet(t, 0), cfg,
		WithJobs(4), WithSink(NewJSONLFileSink(pf)), WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, fullRecs) {
		t.Error("resumed HCFirst records diverge")
	}
	got, err := os.ReadFile(partPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Error("resumed HCFirst file is not byte-identical")
	}
}

// TestSweepResumeCompleteFileSkipsAllWork: resuming an already-finished
// file executes nothing and returns the full result set.
func TestSweepResumeCompleteFileSkipsAllWork(t *testing.T) {
	t.Parallel()
	cfg := resumeBERConfig()
	path := filepath.Join(t.TempDir(), "full.jsonl")
	fullRecs, err := runBERToFile(t, path, cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cp, err := ResumeFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordSink{}
	recs, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
		WithSink(MultiSink(NewJSONLFileSink(f), sink)), WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, fullRecs) {
		t.Error("records diverge from the original run's")
	}
	if sink.progress != 0 || len(sink.records) != 0 {
		t.Errorf("complete-file resume executed work: %d progress callbacks, %d records", sink.progress, len(sink.records))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("complete-file resume rewrote the file")
	}
}

// TestResumeRejectsMismatch: a checkpoint only resumes the identical
// sweep - config drift and kind drift are both detected.
func TestResumeRejectsMismatch(t *testing.T) {
	t.Parallel()
	cfg := resumeBERConfig()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := runBERToFile(t, path, cfg, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ResumeFrom(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	drifted := cfg
	drifted.HammerCount = 111_111
	if _, err := RunBERContext(context.Background(), smallFleet(t, 0), drifted, WithResume(cp)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("drifted config resumed: err = %v", err)
	}
	if _, err := RunBERContext(context.Background(), smallFleet(t, 0, 1), cfg, WithResume(cp)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("drifted chip set resumed: err = %v", err)
	}
	if _, err := RunHCFirstContext(context.Background(), smallFleet(t, 0), HCFirstConfig{}, WithResume(cp)); err == nil ||
		!strings.Contains(err.Error(), "not hcfirst") {
		t.Errorf("wrong kind resumed: err = %v", err)
	}
	if _, err := RunAgingContext(context.Background(), smallFleet(t, 0), AgingConfig{}, WithResume(cp)); err == nil {
		t.Error("aging accepted a resume checkpoint")
	}
}

// TestResumeFromParsing covers the checkpoint reader itself: missing
// headers, torn tails, and multi-sweep files.
func TestResumeFromParsing(t *testing.T) {
	t.Parallel()
	header := `{"hbmrd_sweep":1,"kind":"ber","fingerprint":"sha256:aabbccdd","cells":4,"generation":1}` + "\n"

	if _, err := ResumeFrom(strings.NewReader("")); !errors.Is(err, ErrNoHeader) {
		t.Errorf("empty stream: err = %v, want ErrNoHeader", err)
	}
	if _, err := ResumeFrom(strings.NewReader(`{"Chip":0}` + "\n")); !errors.Is(err, ErrNoHeader) {
		t.Errorf("headerless records: err = %v, want ErrNoHeader", err)
	}

	cp, err := ResumeFrom(strings.NewReader(header + `{"Chip":0}` + "\n" + `{"Chip":1}` + "\n" + `{"Chi`))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Records() != 2 {
		t.Errorf("Records() = %d, want 2 (torn tail dropped)", cp.Records())
	}
	if want := int64(len(header) + 22); cp.ValidBytes() != want {
		t.Errorf("ValidBytes() = %d, want %d", cp.ValidBytes(), want)
	}

	cp, err = ResumeFrom(strings.NewReader(header + `{"Chip":0}` + "\n" + `{"Chip":1,` + "\n" + `{"Chip":2}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Records() != 1 {
		t.Errorf("Records() = %d, want 1 (everything past a malformed line dropped)", cp.Records())
	}

	if _, err := ResumeFrom(strings.NewReader(header + `{"Chip":0}` + "\n" + header)); err == nil ||
		!strings.Contains(err.Error(), "more than one sweep") {
		t.Errorf("multi-sweep file: err = %v", err)
	}
}

// TestZeroCellSweepProgress is the regression test for the
// ProgressSink divide-by-zero on zero-cell plans: an empty fleet yields a
// zero-cell plan whose lifecycle (and any external progress report
// against it) must not panic.
func TestZeroCellSweepProgress(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	sink := NewProgressSink(&buf, "empty")
	recs, err := RunBERContext(context.Background(), nil, resumeBERConfig(), WithSink(sink))
	if err != nil || recs != nil {
		t.Fatalf("zero-cell sweep: recs=%v err=%v", recs, err)
	}
	// A driver reporting completion of an empty sweep must not divide by
	// its zero cell count.
	sink.Progress(0, 0)
	if !strings.Contains(buf.String(), "100%") {
		t.Errorf("empty sweep progress = %q, want a 100%% line", buf.String())
	}
}

// progressSink records the Start total and every Progress pair.
type progressSink struct {
	total    int
	progress [][2]int
}

func (s *progressSink) Start(total int) { s.total = total }
func (s *progressSink) Progress(done, total int) {
	s.progress = append(s.progress, [2]int{done, total})
}
func (s *progressSink) Record(any)   {}
func (s *progressSink) Finish(error) {}

// TestResumeProgressCountsLiveCellsOnly is the regression test for the
// -resume -progress double count: checkpointed cells used to inflate both
// the Start total and the running done count, so a resumed run opened at
// a false percentage over the full plan. Progress must cover only the
// cells the resumed run actually executes.
func TestResumeProgressCountsLiveCellsOnly(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := resumeBERConfig()
	path := filepath.Join(dir, "part.jsonl")

	// Cancel after 2 completed cells (jobs=1 makes completion order plan
	// order), leaving a checkpoint covering exactly those cells.
	if _, err := runBERToFile(t, path, cfg, 1, 2); err == nil {
		t.Fatal("cancelled run reported success")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cp, err := ResumeFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	// Each BER cell spans len(Patterns)+1 records.
	covered := cp.Records() / (len(cfg.Patterns) + 1)
	if covered == 0 {
		t.Fatal("checkpoint covers no cells")
	}
	totalCells := len(cfg.Channels) * len(cfg.Rows)

	sink := &progressSink{}
	if _, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
		WithJobs(1), WithSink(MultiSink(NewJSONLFileSink(f), sink)), WithResume(cp)); err != nil {
		t.Fatal(err)
	}
	live := totalCells - covered
	if sink.total != live {
		t.Errorf("Start total = %d, want %d live cells (%d total - %d checkpointed)",
			sink.total, live, totalCells, covered)
	}
	if len(sink.progress) != live {
		t.Fatalf("%d Progress calls, want %d", len(sink.progress), live)
	}
	for i, p := range sink.progress {
		if p[1] != live {
			t.Fatalf("Progress denominator %d, want %d", p[1], live)
		}
		if p[0] != i+1 {
			t.Fatalf("Progress numerator %d at call %d, want %d", p[0], i, i+1)
		}
	}
}

// TestFingerprintStability: fingerprints are equal exactly when the sweep
// is; each input dimension moves the hash.
func TestFingerprintFor(t *testing.T) {
	t.Parallel()
	fleet := smallFleet(t, 0)
	base, err := FingerprintFor(KindBER, fleet, resumeBERConfig())
	if err != nil {
		t.Fatal(err)
	}
	again, err := FingerprintFor(KindBER, fleet, resumeBERConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Error("identical sweeps fingerprint differently")
	}
	// An explicitly-default field and the default are the same canonical
	// config.
	explicit := resumeBERConfig()
	explicit.HammerCount = 256 * 1024
	if fp, _ := FingerprintFor(KindBER, fleet, explicit); fp != base {
		t.Error("explicit default changed the fingerprint")
	}
	drift := resumeBERConfig()
	drift.Reps = 2
	if fp, _ := FingerprintFor(KindBER, fleet, drift); fp == base {
		t.Error("config change kept the fingerprint")
	}
	if fp, _ := FingerprintFor(KindBER, smallFleet(t, 0, 1), resumeBERConfig()); fp == base {
		t.Error("chip-set change kept the fingerprint")
	}
	if fp, _ := FingerprintFor(KindHCFirst, fleet, HCFirstConfig{}); fp == base {
		t.Error("kind change kept the fingerprint")
	}
	if _, err := FingerprintFor(KindBER, fleet, HCFirstConfig{}); err == nil {
		t.Error("mismatched config type accepted")
	}
	if _, err := FingerprintFor(Kind("nope"), fleet, resumeBERConfig()); err == nil {
		t.Error("unknown kind accepted")
	}
}
