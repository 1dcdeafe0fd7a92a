package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbmrd/internal/core"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// corruptTwin locates the store's single results.hbmc and rewrites it via
// mutate (bit-flip, truncation, ...).
func corruptTwin(t *testing.T, storeDir string, mutate func([]byte) []byte) {
	t.Helper()
	twins, err := filepath.Glob(filepath.Join(storeDir, "objects", "*", "*", "results.hbmc"))
	if err != nil || len(twins) != 1 {
		t.Fatalf("columnar twins = %v (err %v), want exactly one", twins, err)
	}
	b, err := os.ReadFile(twins[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(twins[0], mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptColumnarTwinFallsBackToJSONL is the store's graceful-
// degradation contract: a columnar twin that no longer decodes is a
// repair, not an error - the engine logs it, drops the corrupt artifact,
// rebuilds it from the JSONL of record, and answers byte-identically from
// the fresh twin.
func TestCorruptColumnarTwinFallsBackToJSONL(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		// One flipped bit inside the embedded header's fingerprint: the
		// artifact either stops parsing or identifies the wrong sweep.
		{"bitflip", func(b []byte) []byte {
			i := bytes.Index(b, []byte("sha256:"))
			if i < 0 {
				t.Fatal("twin carries no fingerprint bytes")
			}
			b[i+len("sha256:")+3] ^= 0x10
			return b
		}},
		// A torn twin (crashed writer, partial disk): decode fails mid-
		// payload.
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		// Every column name matches the kind's schema, but Chip is
		// declared a float column with a well-formed 8-byte-per-row
		// payload: it parses, yet an integer accessor would find no ints.
		{"mistyped", func(b []byte) []byte { return retypeColumn(t, b, "Chip", core.ColFloat) }},
		// Magic and version, then a header-length varint near 2^63: a
		// bounds check that adds it to the offset overflows.
		{"crafted length", func(b []byte) []byte { return binary.AppendUvarint(b[:5], 1<<63-1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			path := filepath.Join(dir, "hcfirst.jsonl")
			runTinyHCFirstToFile(t, path)
			st, err := store.Open(filepath.Join(dir, "store"))
			if err != nil {
				t.Fatal(err)
			}
			meta, err := Ingest(st, path)
			if err != nil {
				t.Fatal(err)
			}
			fp := meta.Fingerprint
			if !st.HasColumnar(fp) {
				t.Fatal("ingest wrote no columnar twin")
			}
			spec, err := FigureSpec("fig5", fp)
			if err != nil {
				t.Fatal(err)
			}
			// Reference aggregate from the healthy twin, bypassing the
			// derived cache on both ends.
			ref, err := NewEngine(st).RunCold(spec)
			if err != nil {
				t.Fatal(err)
			}

			corruptTwin(t, filepath.Join(dir, "store"), tc.mutate)

			var logs strings.Builder
			eng := NewEngine(st)
			eng.Log = telemetry.NewLogger(func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) })
			got, err := eng.Run(spec)
			if err != nil {
				t.Fatalf("query over corrupt twin errored: %v", err)
			}
			if got.Source != SourceColumnar {
				t.Errorf("Source = %s, want %s (rebuilt twin)", got.Source, SourceColumnar)
			}
			if !bytes.Equal(got.JSON, ref.JSON) {
				t.Error("aggregate over the rebuilt twin is not byte-identical to the reference")
			}
			if !strings.Contains(logs.String(), "unreadable") {
				t.Errorf("quarantine was not logged: %q", logs.String())
			}
			// The corrupt artifact was dropped and re-transcoded from the
			// JSONL; the fresh twin serves the same bytes.
			if !st.HasColumnar(fp) {
				t.Fatal("twin was not re-transcoded after the drop")
			}
			again, err := NewEngine(st).RunCold(spec)
			if err != nil {
				t.Fatalf("re-transcoded twin does not decode: %v", err)
			}
			if !bytes.Equal(again.JSON, ref.JSON) {
				t.Error("re-transcoded twin's aggregate diverges from the reference")
			}
		})
	}
}

// TestRejectedSpecDoesNotQuarantineTwin pins the boundary of the
// quarantine heuristic: a spec the engine rejects (unknown metric here)
// fails on ANY representation, so it must surface as ErrSpec without
// evicting the healthy columnar twin - otherwise every typo'd query
// would pay a needless rebuild from the JSONL.
func TestRejectedSpecDoesNotQuarantineTwin(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "hcfirst.jsonl")
	runTinyHCFirstToFile(t, path)
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := Ingest(st, path)
	if err != nil {
		t.Fatal(err)
	}
	fp := meta.Fingerprint
	if !st.HasColumnar(fp) {
		t.Fatal("ingest wrote no columnar twin")
	}

	var logs strings.Builder
	eng := NewEngine(st)
	eng.Log = telemetry.NewLogger(func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) })
	bad := Spec{Sweep: fp, Metric: "no_such_metric", Reducers: []string{"mean"}}
	if _, err := eng.Run(bad); !errors.Is(err, ErrSpec) {
		t.Fatalf("Run(bad spec) = %v, want ErrSpec", err)
	}
	if !st.HasColumnar(fp) {
		t.Fatal("rejected spec evicted the columnar twin")
	}
	if strings.Contains(logs.String(), "unreadable") {
		t.Errorf("rejected spec was logged as twin corruption: %q", logs.String())
	}
	// The twin still serves valid queries.
	good, err := FigureSpec("fig5", fp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceColumnar {
		t.Errorf("Source after rejected spec = %s, want %s", res.Source, SourceColumnar)
	}
}

// TestUnrebuildableTwinFailsQuery: a sweep whose twin is gone and whose
// JSONL of record no longer decodes cannot be answered. The query fails
// with an execution error, not a spec error, and the failed rebuild
// leaves neither a twin nor a staged artifact behind.
func TestUnrebuildableTwinFailsQuery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "hcfirst.jsonl")
	runTinyHCFirstToFile(t, path)
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := Ingest(st, path)
	if err != nil {
		t.Fatal(err)
	}
	fp := meta.Fingerprint
	if err := st.DropColumnar(fp); err != nil {
		t.Fatal(err)
	}
	jsonl, _, err := st.Path(fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonl, []byte("not a sweep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := FigureSpec("fig5", fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(st).Run(spec); err == nil || errors.Is(err, ErrSpec) {
		t.Fatalf("Run over an unrebuildable twin = %v, want an execution error", err)
	}
	if st.HasColumnar(fp) {
		t.Error("failed rebuild left a twin")
	}
	if staged, _ := filepath.Glob(filepath.Join(storeDir, "tmp", "columnar-*")); len(staged) != 0 {
		t.Errorf("failed rebuild left staged artifacts %v", staged)
	}
}

// retypeColumn rewrites one column of a columnar artifact as a column of
// type typ (ColFloat: zero bits, 8 bytes per row), leaving the header,
// row count and every other column as they were.
func retypeColumn(t *testing.T, b []byte, name string, typ uint8) []byte {
	t.Helper()
	pos := 5 // magic and version
	uv := func() int {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			t.Fatal("malformed artifact")
		}
		pos += n
		return int(v)
	}
	hl := uv()
	pos += hl
	rows := uv()
	ncols := uv()
	for c := 0; c < ncols; c++ {
		start := pos
		nl := uv()
		col := string(b[pos : pos+nl])
		pos += nl + 1 // name, type byte
		pos += uv()   // payload
		if col != name {
			continue
		}
		out := append([]byte(nil), b[:start]...)
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = append(out, typ)
		out = binary.AppendUvarint(out, uint64(8*rows))
		out = append(out, make([]byte, 8*rows)...)
		return append(out, b[pos:]...)
	}
	t.Fatalf("artifact has no column %s", name)
	return nil
}
