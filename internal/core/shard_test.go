package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// headerCaptureSink records the sweep header a run stamps.
type headerCaptureSink struct {
	h   SweepHeader
	got bool
}

func (s *headerCaptureSink) Start(int)            {}
func (s *headerCaptureSink) Progress(int, int)    {}
func (s *headerCaptureSink) Record(any)           {}
func (s *headerCaptureSink) Finish(error)         {}
func (s *headerCaptureSink) Header(h SweepHeader) { s.h, s.got = h, true }

// sweepLines splits a streamed sweep file into its header line and record
// lines (each line includes its terminating newline).
func sweepLines(t *testing.T, b []byte) (header []byte, records [][]byte) {
	t.Helper()
	end := bytes.IndexByte(b, '\n') + 1
	if end <= 0 {
		t.Fatal("sweep file has no header line")
	}
	header = b[:end]
	for rest := b[end:]; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n') + 1
		if i <= 0 {
			t.Fatal("sweep file has a torn tail")
		}
		records = append(records, rest[:i])
		rest = rest[i:]
	}
	return header, records
}

// TestShardedSweepByteIdentity is the sharding contract at the engine
// level: each shard's record payload is exactly the corresponding slice of
// the parent stream's record lines, shard headers carry the lineage, and
// concatenating the parent header with the shard payloads in range order
// reproduces the uninterrupted single-run file byte for byte.
func TestShardedSweepByteIdentity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := resumeBERConfig()

	fullPath := filepath.Join(dir, "full.jsonl")
	fullRecs, err := runBERToFile(t, fullPath, cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	parentHeader, lines := sweepLines(t, full)
	cells := len(cfg.Channels) * len(cfg.Rows) // one chip
	perCell := len(cfg.Patterns) + 1
	if len(lines) != cells*perCell {
		t.Fatalf("%d record lines, want %d", len(lines), cells*perCell)
	}
	parentFP, err := FingerprintFor(KindBER, smallFleet(t, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Uneven split exercising interior boundaries, a single-cell shard,
	// and ranges crossing (chip, channel) group boundaries.
	ranges := []ShardRange{{0, 5}, {5, 6}, {6, cells}}
	merged := append([]byte(nil), parentHeader...)
	for _, sr := range ranges {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d-%d.jsonl", sr.Start, sr.End))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		hs := &headerCaptureSink{}
		recs, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
			WithJobs(2), WithSink(MultiSink(NewJSONLFileSink(f), hs)), WithShard(sr))
		f.Close()
		if err != nil {
			t.Fatalf("shard [%d:%d): %v", sr.Start, sr.End, err)
		}
		if !reflect.DeepEqual(recs, fullRecs[sr.Start*perCell:sr.End*perCell]) {
			t.Errorf("shard [%d:%d) records diverge from the parent slice", sr.Start, sr.End)
		}
		if !hs.got {
			t.Fatalf("shard [%d:%d) stamped no header", sr.Start, sr.End)
		}
		h := hs.h
		if h.Parent != parentFP || h.ShardStart != sr.Start || h.ShardEnd != sr.End ||
			h.Cells != sr.End-sr.Start || h.Fingerprint != ShardFingerprint(parentFP, sr.Start, sr.End) {
			t.Errorf("shard [%d:%d) header lineage wrong: %+v", sr.Start, sr.End, h)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, shardLines := sweepLines(t, b)
		want := bytes.Join(lines[sr.Start*perCell:sr.End*perCell], nil)
		got := bytes.Join(shardLines, nil)
		if !bytes.Equal(got, want) {
			t.Errorf("shard [%d:%d) payload is not the parent slice", sr.Start, sr.End)
		}
		merged = append(merged, got...)
	}
	if !bytes.Equal(merged, full) {
		t.Error("merged shard payloads are not byte-identical to the uninterrupted run")
	}
}

// TestShardResumeByteIdentity: a shard interrupted mid-stream resumes
// through the ordinary checkpoint machinery (the checkpoint carries the
// shard's own fingerprint) and finishes byte-identical.
func TestShardResumeByteIdentity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := resumeBERConfig()
	sr := ShardRange{3, 9}

	run := func(path string, opts ...RunOption) error {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = RunBERContext(context.Background(), smallFleet(t, 0), cfg,
			append([]RunOption{WithJobs(1), WithSink(NewJSONLFileSink(f)), WithShard(sr)}, opts...)...)
		return err
	}
	fullPath := filepath.Join(dir, "shard.jsonl")
	if err := run(fullPath); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	partPath := filepath.Join(dir, "part.jsonl")
	if err := os.WriteFile(partPath, full[:2*len(full)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := os.Open(partPath)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ResumeFrom(pf)
	pf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := run(partPath, WithResume(cp)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(partPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Error("resumed shard is not byte-identical to the uninterrupted shard run")
	}

	// A parent-sweep checkpoint must not resume a shard run (and vice
	// versa): the fingerprints differ by construction.
	wholePath := filepath.Join(dir, "whole.jsonl")
	wf, err := os.Create(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
		WithJobs(1), WithSink(NewJSONLFileSink(wf))); err != nil {
		t.Fatal(err)
	}
	wf.Close()
	rf, err := os.Open(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	wcp, err := ResumeFrom(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg,
		WithShard(sr), WithResume(wcp)); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("parent checkpoint resumed a shard run: err = %v", err)
	}
}

// TestShardValidation: out-of-range and empty shard ranges are rejected,
// aging refuses sharding outright and has no plan size, and PlanSize
// rejects a config of the wrong kind.
func TestShardValidation(t *testing.T) {
	t.Parallel()
	cfg := resumeBERConfig()
	cells := len(cfg.Channels) * len(cfg.Rows)
	for _, sr := range []ShardRange{{-1, 2}, {0, cells + 1}, {4, 4}, {5, 3}} {
		if _, err := RunBERContext(context.Background(), smallFleet(t, 0), cfg, WithShard(sr)); err == nil ||
			!strings.Contains(err.Error(), "shard range") {
			t.Errorf("shard %+v accepted: err = %v", sr, err)
		}
	}
	if _, err := RunAgingContext(context.Background(), smallFleet(t, 0), AgingConfig{},
		WithShard(ShardRange{0, 1})); err == nil || !strings.Contains(err.Error(), "cannot be sharded") {
		t.Errorf("aging accepted a shard: err = %v", err)
	}
	if _, err := PlanSize(KindAging, smallFleet(t, 0), AgingConfig{}); err == nil {
		t.Error("PlanSize accepted aging")
	}
	if _, err := PlanSize(KindBER, smallFleet(t, 0), HCFirstConfig{}); err == nil {
		t.Error("PlanSize accepted a mismatched config type")
	}
}

// TestShardFingerprint: the sub-fingerprint moves with the parent and with
// each range bound, and never collides with the parent itself.
func TestShardFingerprint(t *testing.T) {
	t.Parallel()
	base := ShardFingerprint("sha256:aa", 0, 10)
	if base == ShardFingerprint("sha256:bb", 0, 10) ||
		base == ShardFingerprint("sha256:aa", 1, 10) ||
		base == ShardFingerprint("sha256:aa", 0, 9) ||
		base == "sha256:aa" {
		t.Error("shard fingerprint does not separate parent/range inputs")
	}
	if base != ShardFingerprint("sha256:aa", 0, 10) {
		t.Error("shard fingerprint is not deterministic")
	}
}

// TestPlanSizeMatchesRunners: for every shardable kind, the header.Cells
// a tiny sweep stamps when run through its registered descriptor - the
// path hbmrdd takes - equals PlanSize for the same fleet and config.
func TestPlanSizeMatchesRunners(t *testing.T) {
	t.Parallel()
	preset, err := hbm.LookupPreset(hbm.PresetHBM2)
	if err != nil {
		t.Fatal(err)
	}
	rows := SampleRowsIn(preset.Geometry, 2)
	pats := []pattern.Pattern{pattern.Rowstripe0, pattern.Checkered0}
	cfgs := map[Kind]any{
		KindBER:         BERConfig{Channels: []int{0}, Rows: rows, Patterns: pats, HammerCount: 30_000, Reps: 1},
		KindHCFirst:     HCFirstConfig{Channels: []int{0}, Rows: rows[:1], Patterns: pats, Reps: 1},
		KindHCNth:       HCNthConfig{Channels: []int{0}, Rows: rows[:1], Patterns: pats[:1], MaxFlips: 3},
		KindVariability: VariabilityConfig{Rows: rows[:1], Iterations: 3},
		KindRowPressBER: RowPressBERConfig{Channels: []int{0}, Rows: rows, TAggONs: []hbm.TimePS{29 * hbm.NS}, HammerCount: 2_000, RetentionReps: 1},
		KindRowPressHC:  RowPressHCConfig{Channels: []int{0}, Rows: rows[:1], TAggONs: []hbm.TimePS{29 * hbm.NS}, MaxHammer: 60_000},
		KindBypass:      BypassConfig{Victims: rows[:1], DummyCounts: []int{1, 2}, AggActs: []int{18}, Windows: 32},
		KindVRD:         VRDConfig{Rows: rows, Trials: 2},
		KindColDisturb:  ColDisturbConfig{AggRows: rows, Distances: []int{1, 2}, Stripes: []int{2}, Reads: 4_000, MaxReads: 1 << 16},
	}
	for kind, cfg := range cfgs {
		kind, cfg := kind, cfg
		t.Run(string(kind), func(t *testing.T) {
			fleet := roundTripFleet(t, preset)
			want, err := PlanSize(kind, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := LookupKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			hs := &headerCaptureSink{}
			if _, err := d.Run(context.Background(), fleet, cfg, WithJobs(1), WithSink(hs)); err != nil {
				t.Fatal(err)
			}
			if !hs.got {
				t.Fatal("run stamped no header")
			}
			if hs.h.Cells != want {
				t.Errorf("PlanSize = %d, runner plan = %d cells", want, hs.h.Cells)
			}
		})
	}
}

// TestShardHeaderBytesLegacyUnchanged guards the omitempty contract: a
// whole-sweep header must serialize without any shard field, so existing
// stored sweeps, checkpoints, and golden digests are untouched.
func TestShardHeaderBytesLegacyUnchanged(t *testing.T) {
	t.Parallel()
	h := SweepHeader{Format: 1, Kind: "ber", Fingerprint: "sha256:aa", Cells: 4, Generation: CodeGeneration}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "shard") || strings.Contains(string(b), "parent") {
		t.Errorf("whole-sweep header leaks shard fields: %s", b)
	}
}
