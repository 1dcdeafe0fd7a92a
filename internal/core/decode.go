package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// DecodeRecords parses a stored sweep stream - the JSONL a JSONLSink
// produced: one header line, then one record per line in plan order - back
// into the concrete record type of its kind. It is the exact inverse of
// the sink encoding: EncodeRecords over the returned header and records
// reproduces the input byte for byte (the round-trip contract the golden
// CI job enforces for every record type on every preset).
//
// kind names the expected experiment; pass "" to accept whatever the
// header declares. The returned records value is the kind's typed slice -
// []BERRecord for KindBER, []HCFirstRecord for KindHCFirst, and so on for
// every registered kind. Record lines are decoded strictly (unknown fields and
// trailing garbage are errors), so drift between the sink encoding and
// the record structs cannot pass silently.
func DecodeRecords(kind Kind, r io.Reader) (SweepHeader, any, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	h, _, err := readSweepHeader(br)
	if err != nil {
		return SweepHeader{}, nil, err
	}
	if kind == "" {
		kind = Kind(h.Kind)
	}
	if h.Kind != string(kind) {
		return SweepHeader{}, nil, fmt.Errorf("core: stream holds a %s sweep, not %s", h.Kind, kind)
	}
	d, err := LookupKind(kind)
	if err != nil {
		return SweepHeader{}, nil, err
	}
	recs, err := d.decode(br)
	if err != nil {
		return SweepHeader{}, nil, err
	}
	return h, recs, nil
}

// decodeAll decodes every remaining line of the stream into R, strictly:
// each line must be one complete JSON object with no unknown fields and no
// trailing data, and the final line must be newline-terminated (a missing
// newline is the signature of a torn write - such files are checkpoints to
// resume, not finished sweeps to decode).
func decodeAll[R any](br *bufio.Reader) ([]R, error) {
	var out []R
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			if len(line) == 0 {
				return out, nil
			}
			return nil, fmt.Errorf("core: record %d is a torn final line; resume the sweep instead of decoding it", len(out)+1)
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading record %d: %w", len(out)+1, err)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var rec R
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("core: decoding record %d: %w", len(out)+1, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("core: record %d has trailing data", len(out)+1)
		}
		out = append(out, rec)
	}
}

// EncodeRecords writes a sweep stream - header line, then one record per
// line - exactly as a JSONLSink would during the live run. records must be
// a slice of a registered record type (the shape DecodeRecords
// returns); EncodeRecords(w, DecodeRecords(kind, r)) reproduces r byte for
// byte.
func EncodeRecords(w io.Writer, h SweepHeader, records any) error {
	v := reflect.ValueOf(records)
	if !v.IsValid() || v.Kind() != reflect.Slice {
		return fmt.Errorf("core: EncodeRecords wants a record slice, got %T", records)
	}
	sink := NewJSONLSink(w)
	sink.Header(h)
	for i := 0; i < v.Len(); i++ {
		sink.Record(v.Index(i).Interface())
	}
	return sink.Err()
}

// RecordCount reports the length of a typed record slice as returned by
// DecodeRecords, without the caller having to type-switch.
func RecordCount(records any) int {
	v := reflect.ValueOf(records)
	if !v.IsValid() || v.Kind() != reflect.Slice {
		return 0
	}
	return v.Len()
}

// VerifyComplete checks that a decoded record stream covers its header's
// whole plan - the gate that keeps an interrupted sweep (a clean-prefix
// checkpoint) from being mistaken for a finished one. It needs no config:
// plan cells appear in the stream as runs of records sharing one cell
// identity, so coverage is countable from the records themselves. Each
// kind registers its rule: one record per cell; equal-length probe runs
// (coldist); or, for the two kinds with multi-record cells (BER,
// HCFirst), runs whose structure validates the final run too - every
// complete cell's records end with its derived WCDP record (BER always;
// HCFirst whenever a pattern flipped), and all cells of one sweep share
// one per-cell pattern count.
//
// Aging streams no per-cell records (the joined records flush only after
// both passes), so its completeness cannot be established from the file;
// VerifyComplete rejects it, and aging results should enter a store only
// through a path that witnessed the run finish (as hbmrdd's finalize
// does).
func VerifyComplete(h SweepHeader, records any) error {
	d, err := LookupKind(Kind(h.Kind))
	if err != nil {
		return err
	}
	return d.verify(h, records)
}

func incompleteErr(h SweepHeader, covered int) error {
	return fmt.Errorf("core: incomplete sweep: records cover %d of %d plan cells", covered, h.Cells)
}

// oneRecordPerCell is the completeness rule of kinds that emit exactly one
// record per plan cell.
func oneRecordPerCell[R any](h SweepHeader, recs []R) error {
	if len(recs) != h.Cells {
		return incompleteErr(h, len(recs))
	}
	return nil
}

// equalRuns is the completeness rule of kinds that emit a fixed-length run
// of probe records per plan cell: runs group by the cell identity key
// returns, and all runs share one length.
func equalRuns[R any](key func(r *R) [5]int) func(SweepHeader, []R) error {
	return func(h SweepHeader, recs []R) error {
		runs, span := 0, -1
		for i := 0; i < len(recs); {
			k := key(&recs[i])
			j := i + 1
			for j < len(recs) && key(&recs[j]) == k {
				j++
			}
			runs++
			if span == -1 {
				span = j - i
			} else if j-i != span {
				return fmt.Errorf("core: incomplete sweep: cell %v has %d of %d probe records", k, j-i, span)
			}
			i = j
		}
		if runs != h.Cells {
			return incompleteErr(h, runs)
		}
		return nil
	}
}

// wcdpRuns is the completeness rule of the BER/HCFirst cell structure:
// records group into runs by the cell identity cell returns; a run whose
// measurements found a flip must end with exactly one WCDP record (the
// derived worst-case row, always emitted last); every run carries the
// same number of measurement (non-WCDP) records, one per configured
// pattern; and the run count must equal the header's plan cell count.
func wcdpRuns[R any](cell func(r *R) (key [5]int, wcdp, found bool)) func(SweepHeader, []R) error {
	return func(h SweepHeader, recs []R) error {
		runs := 0
		patterns := -1
		for i := 0; i < len(recs); {
			key, _, _ := cell(&recs[i])
			runs++
			measured, anyFound, sawWCDP := 0, false, false
			j := i
			for ; j < len(recs); j++ {
				k, wcdp, found := cell(&recs[j])
				if k != key {
					break
				}
				if sawWCDP {
					return fmt.Errorf("core: malformed sweep: records after cell %v's WCDP record", key)
				}
				if wcdp {
					sawWCDP = true
					continue
				}
				measured++
				if found {
					anyFound = found
				}
			}
			if anyFound && !sawWCDP {
				return fmt.Errorf("core: incomplete sweep: cell %v is missing its WCDP record", key)
			}
			if patterns == -1 {
				patterns = measured
			} else if measured != patterns {
				return fmt.Errorf("core: incomplete sweep: cell %v has %d of %d pattern records", key, measured, patterns)
			}
			i = j
		}
		if runs != h.Cells {
			return incompleteErr(h, runs)
		}
		return nil
	}
}
