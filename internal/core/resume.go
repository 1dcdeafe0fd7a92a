package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// sweepFormat versions the streamed sweep file format (header line shape
// and resume semantics). It is independent of CodeGeneration, which
// versions the fault model's behaviour.
const sweepFormat = 1

// SweepHeader is the first line of every streamed sweep file: a JSON
// object identifying the sweep that produced the records that follow. The
// "hbmrd_sweep" key doubles as the magic marker distinguishing a header
// from a record line.
type SweepHeader struct {
	// Format is the sweep file format version.
	Format int `json:"hbmrd_sweep"`
	// Kind is the experiment kind ("ber", "hcfirst", ...).
	Kind string `json:"kind"`
	// Fingerprint is the content hash of (kind, canonical config, geometry,
	// timing, chip set and row mappings, code generation). Equal
	// fingerprints mean byte-identical record streams. For a shard it is
	// the shard's sub-fingerprint (see ShardFingerprint).
	Fingerprint string `json:"fingerprint"`
	// Cells is the stream's plan cell count: the whole sweep's, or - for a
	// shard - only the shard range's.
	Cells int `json:"cells"`
	// Generation is the CodeGeneration the producer was built at (also part
	// of the fingerprint; duplicated here for human readers).
	Generation int `json:"generation"`
	// Parent is the full sweep's fingerprint when this stream is a shard
	// produced under WithShard; empty (and omitted, so whole-sweep header
	// bytes are unchanged) otherwise.
	Parent string `json:"parent,omitempty"`
	// ShardStart and ShardEnd bound the parent-plan cell range
	// [ShardStart, ShardEnd) a shard stream covers.
	ShardStart int `json:"shard_start,omitempty"`
	ShardEnd   int `json:"shard_end,omitempty"`
}

// rawLine is one complete record line of a checkpoint file plus the byte
// offset just past its terminating newline.
type rawLine struct {
	data []byte
	end  int64
}

// Checkpoint is the validated prefix of a partially written sweep file:
// the header plus every complete, syntactically valid record line before
// the truncation point. Obtain one with ResumeFrom and pass it to a
// runner via WithResume; the runner validates the fingerprint against its
// own config and skips the plan cells the prefix already covers. A
// Checkpoint is consumed by the run that resumes it (decoded record bytes
// are released as they are absorbed, so a large prefix is not held in
// memory twice); read the file again to build a fresh one.
type Checkpoint struct {
	// Header is the file's sweep header.
	Header SweepHeader

	headerEnd int64
	lines     []rawLine
}

// Records reports how many complete record lines the valid prefix holds.
func (cp *Checkpoint) Records() int { return len(cp.lines) }

// ValidBytes reports the byte offset of the end of the valid prefix (the
// header plus every complete record line). Bytes past it are a torn tail
// from the interrupted writer.
func (cp *Checkpoint) ValidBytes() int64 {
	if n := len(cp.lines); n > 0 {
		return cp.lines[n-1].end
	}
	return cp.headerEnd
}

// ErrNoHeader reports that a stream does not begin with a sweep header
// (it predates checkpointing, or is not a sweep file at all).
var ErrNoHeader = errors.New("core: stream has no sweep header")

// readSweepHeader reads and validates the header line of a sweep stream,
// returning it plus the byte offset just past its terminating newline.
// Shared by ResumeFrom (checkpoint parsing) and DecodeRecords (typed
// decode of finished sweeps), so the two readers cannot drift.
func readSweepHeader(br *bufio.Reader) (SweepHeader, int64, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF {
			return SweepHeader{}, 0, ErrNoHeader
		}
		return SweepHeader{}, 0, fmt.Errorf("core: reading sweep header: %w", err)
	}
	var h SweepHeader
	if err := json.Unmarshal(line, &h); err != nil || h.Format == 0 {
		return SweepHeader{}, 0, ErrNoHeader
	}
	if h.Format != sweepFormat {
		return SweepHeader{}, 0, fmt.Errorf("core: sweep file format %d, this build reads %d", h.Format, sweepFormat)
	}
	if h.Fingerprint == "" {
		return SweepHeader{}, 0, fmt.Errorf("core: sweep header has no fingerprint")
	}
	return h, int64(len(line)), nil
}

// ResumeFrom reads a partially written sweep stream - typically the JSONL
// file left behind by a cancelled run - validates its header, and counts
// the valid record prefix: every complete line of syntactically valid
// JSON before the first torn or malformed one. The returned Checkpoint
// feeds WithResume. Files holding more than one sweep (e.g. from
// `hbmrd all -out`) are rejected: a multi-sweep file has no single plan
// to resume.
func ResumeFrom(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	h, offset, err := readSweepHeader(br)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Header: h, headerEnd: offset}

	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// A tail without a terminating newline is a torn write; drop it.
			break
		}
		offset += int64(len(line))
		if !json.Valid(line) {
			break
		}
		var probe struct {
			Format int `json:"hbmrd_sweep"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Format != 0 {
			return nil, fmt.Errorf("core: stream holds more than one sweep; only single-sweep files can be resumed")
		}
		cp.lines = append(cp.lines, rawLine{data: line, end: offset})
	}
	return cp, nil
}

// spanFunc decides, for the next plan cell, how many of the remaining
// prefix record lines belong to it and whether they cover the cell
// completely. Most runners emit a fixed record count per cell; HCFirst's
// count depends on measurement outcome, which the prefix records
// themselves encode.
type spanFunc func(lines []rawLine) (n int, complete bool, err error)

// fixedSpan covers runners emitting exactly n records per cell.
func fixedSpan(n int) spanFunc {
	return func(lines []rawLine) (int, bool, error) {
		if len(lines) < n {
			return 0, false, nil
		}
		return n, true, nil
	}
}

// oneRecordSpan is the span rule of runners emitting one record per cell.
func oneRecordSpan[C any](*C) spanFunc { return fixedSpan(1) }

// hcFirstSpan covers RunHCFirst: one record per pattern, plus a derived
// WCDP record whenever any pattern found a flip. Which case applies is
// read back from the prefix's own Found flags.
func hcFirstSpan(patterns int) spanFunc {
	return func(lines []rawLine) (int, bool, error) {
		if len(lines) < patterns {
			return 0, false, nil
		}
		anyFound := false
		for _, l := range lines[:patterns] {
			var probe struct{ Found bool }
			if err := json.Unmarshal(l.data, &probe); err != nil {
				return 0, false, fmt.Errorf("core: corrupt checkpoint record: %w", err)
			}
			if probe.Found {
				anyFound = true
				break
			}
		}
		if !anyFound {
			return patterns, true, nil
		}
		if len(lines) < patterns+1 {
			return 0, false, nil
		}
		return patterns + 1, true, nil
	}
}

// sweepState is the per-run identity and resume plan runSweep executes
// under: the header to stamp on fresh streams, and - when resuming - the
// plan-prefix of cells whose records the checkpoint already holds.
type sweepState[R any] struct {
	header SweepHeader
	// skip is how many leading plan cells are already complete.
	skip int
	// prefill holds the decoded records of the skipped cells, one slice
	// per cell, so the returned result set is whole.
	prefill [][]R
	// truncAt is the byte offset the destination must be truncated to
	// before appending: the end of the last complete cell's records.
	truncAt int64
	resumed bool
}

// prepareSweep computes the sweep's fingerprint, narrows the plan to the
// shard range when the caller passed WithShard, and, when the caller
// passed WithResume, validates the checkpoint against the (shard)
// fingerprint and resolves the resume plan: walk the plan in order,
// consume each cell's records from the prefix via span, and stop at the
// first cell the prefix does not fully cover. Records of a partially
// covered cell are cut off by truncAt so the re-run cell appends exactly
// once. The returned plan is the one to execute (the shard slice under
// WithShard, the input plan otherwise).
func prepareSweep[R any](kind Kind, fleet []*TestChip, cfg any, p plan, o runOpts, span spanFunc) (plan, *sweepState[R], error) {
	var planStart time.Time
	if o.tracer != nil {
		planStart = time.Now()
	}
	fp, err := fingerprintSweep(kind, fleet, cfg)
	if err != nil {
		return p, nil, err
	}
	h := SweepHeader{
		Format: sweepFormat, Kind: string(kind), Fingerprint: fp,
		Cells: len(p.cells), Generation: CodeGeneration,
	}
	if o.shard != nil {
		sr := *o.shard
		if err := sr.validate(len(p.cells)); err != nil {
			return p, nil, err
		}
		h.Parent = fp
		h.ShardStart, h.ShardEnd = sr.Start, sr.End
		h.Fingerprint = ShardFingerprint(fp, sr.Start, sr.End)
		h.Cells = sr.End - sr.Start
		p = plan{cells: p.cells[sr.Start:sr.End]}
	}
	st := &sweepState[R]{header: h}
	cp := o.resume
	if cp == nil {
		if o.tracer != nil {
			o.tracer.Emit(h.Fingerprint, "plan", planStart,
				"kind", string(kind), "cells", len(p.cells))
		}
		return p, st, nil
	}
	if cp.Header.Kind != string(kind) {
		return p, nil, fmt.Errorf("core: checkpoint is a %s sweep, not %s", cp.Header.Kind, kind)
	}
	if cp.Header.Fingerprint != h.Fingerprint {
		return p, nil, fmt.Errorf("core: checkpoint fingerprint %s does not match this sweep (%s): "+
			"the config, chip set, geometry, shard range, or code generation changed", cp.Header.Fingerprint, h.Fingerprint)
	}
	st.resumed = true
	st.truncAt = cp.headerEnd
	rec := 0
	for ci := range p.cells {
		n, complete, err := span(cp.lines[rec:])
		if err != nil {
			return p, nil, err
		}
		if !complete {
			break
		}
		cellRecs := make([]R, 0, n)
		for j := 0; j < n; j++ {
			var r R
			if err := json.Unmarshal(cp.lines[rec+j].data, &r); err != nil {
				return p, nil, fmt.Errorf("core: decoding checkpoint record %d: %w", rec+j, err)
			}
			cellRecs = append(cellRecs, r)
			// Absorbed into prefill; release the raw bytes so a resumed
			// -full run does not hold its whole prefix in memory twice
			// (the end offset stays - truncAt and ValidBytes need it).
			cp.lines[rec+j].data = nil
		}
		st.prefill = append(st.prefill, cellRecs)
		rec += n
		st.skip = ci + 1
		st.truncAt = cp.lines[rec-1].end
	}
	if o.tracer != nil {
		o.tracer.Emit(h.Fingerprint, "plan", planStart,
			"kind", string(kind), "cells", len(p.cells), "resumed", true, "prefilled", st.skip)
	}
	return p, st, nil
}
