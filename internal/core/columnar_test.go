package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// TestColumnarRoundTripByteIdentity is the columnar codec's contract:
// for every experiment kind, the streamed JSONL of a sweep survives
// columnar encode → decode → Records → EncodeRecords byte-identically -
// on the three legacy presets and a multi-rank HBM3 matrix entry - so
// the columnar twin can never drift from the JSONL interchange format
// without CI noticing. Wired into the golden-digest CI job (make
// golden) alongside TestSweepRoundTripByteIdentity.
func TestColumnarRoundTripByteIdentity(t *testing.T) {
	t.Parallel()
	var presets []hbm.Preset
	for _, name := range []string{hbm.PresetHBM2, hbm.PresetHBM2E, hbm.PresetHBM3, "HBM3_16Gb_4R"} {
		p, err := hbm.LookupPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		presets = append(presets, p)
	}
	if testing.Short() {
		presets = presets[:1]
	}
	for _, preset := range presets {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			t.Parallel()
			for kind, runSweep := range roundTripSweeps(t, preset) {
				kind, runSweep := kind, runSweep
				t.Run(string(kind), func(t *testing.T) {
					t.Parallel()
					var buf bytes.Buffer
					sink := NewJSONLSink(&buf)
					if _, err := runSweep(WithSink(sink)); err != nil {
						t.Fatal(err)
					}
					if err := sink.Err(); err != nil {
						t.Fatal(err)
					}
					streamed := buf.Bytes()

					h, decoded, err := DecodeRecords(kind, bytes.NewReader(streamed))
					if err != nil {
						t.Fatalf("DecodeRecords: %v", err)
					}
					var col bytes.Buffer
					if err := EncodeColumnar(&col, h, decoded); err != nil {
						t.Fatalf("EncodeColumnar: %v", err)
					}
					cs, err := DecodeColumnar(bytes.NewReader(col.Bytes()))
					if err != nil {
						t.Fatalf("DecodeColumnar: %v", err)
					}
					if cs.Header != h {
						t.Fatalf("columnar header %+v, want %+v", cs.Header, h)
					}
					back, err := cs.Records()
					if err != nil {
						t.Fatalf("Records: %v", err)
					}
					if !reflect.DeepEqual(back, decoded) {
						t.Fatal("columnar records differ from the decoded JSONL records")
					}
					var re bytes.Buffer
					if err := EncodeRecords(&re, cs.Header, back); err != nil {
						t.Fatalf("EncodeRecords: %v", err)
					}
					if !bytes.Equal(re.Bytes(), streamed) {
						t.Fatalf("columnar round trip is not byte-identical: %d bytes vs %d",
							re.Len(), len(streamed))
					}
				})
			}
		})
	}
}

// TestColumnarPreservesSliceIdentity: the nil-vs-empty distinction JSON
// makes visible (`null` vs `""`/`[]`) survives the columnar round trip
// for masks, hammer-count lists, and measured ratios.
func TestColumnarPreservesSliceIdentity(t *testing.T) {
	t.Parallel()
	h := SweepHeader{Format: 1, Kind: string(KindBER), Fingerprint: "sha256:" + strings.Repeat("ab", 32), Cells: 4, Generation: 1}
	recs := []BERRecord{
		{Chip: 0, Pattern: pattern.Rowstripe0, Mask: nil},
		{Chip: 1, Pattern: pattern.Rowstripe0, Mask: []byte{}},
		{Chip: 2, Pattern: pattern.Checkered1, Mask: []byte{0x80, 0x00, 0x01}},
	}
	var col bytes.Buffer
	if err := EncodeColumnar(&col, h, recs); err != nil {
		t.Fatal(err)
	}
	cs, err := DecodeColumnar(bytes.NewReader(col.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := cs.Records()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.([]BERRecord)
	if !ok || len(got) != 3 {
		t.Fatalf("Records = %T (%d)", back, len(got))
	}
	if got[0].Mask != nil {
		t.Error("nil mask came back non-nil")
	}
	if got[1].Mask == nil || len(got[1].Mask) != 0 {
		t.Errorf("empty mask came back as %v", got[1].Mask)
	}
	if !bytes.Equal(got[2].Mask, []byte{0x80, 0x00, 0x01}) {
		t.Errorf("mask payload = %v", got[2].Mask)
	}

	hn := h
	hn.Kind = string(KindHCNth)
	nth := []HCNthRecord{
		{Chip: 0, Pattern: pattern.Rowstripe0, HC: nil},
		{Chip: 1, Pattern: pattern.Rowstripe0, HC: []int{}},
		{Chip: 2, Pattern: pattern.Rowstripe0, HC: []int{10_000, 10_250, 11_000}},
	}
	col.Reset()
	if err := EncodeColumnar(&col, hn, nth); err != nil {
		t.Fatal(err)
	}
	cs, err = DecodeColumnar(bytes.NewReader(col.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, err = cs.Records()
	if err != nil {
		t.Fatal(err)
	}
	gotN := back.([]HCNthRecord)
	if gotN[0].HC != nil || gotN[1].HC == nil || !reflect.DeepEqual(gotN[2].HC, []int{10_000, 10_250, 11_000}) {
		t.Errorf("HC lists = %v %v %v", gotN[0].HC, gotN[1].HC, gotN[2].HC)
	}
}

// TestColumnarRejectsMalformed: truncated, corrupted, mislabeled or
// crafted artifacts fail decode with an error - never a panic - instead
// of yielding wrong records. The query engine drops a twin that fails
// decode and rebuilds it from the JSONL of record.
func TestColumnarRejectsMalformed(t *testing.T) {
	t.Parallel()
	h := SweepHeader{Format: 1, Kind: string(KindHCFirst), Fingerprint: "sha256:" + strings.Repeat("cd", 32), Cells: 2, Generation: 1}
	recs := []HCFirstRecord{
		{Chip: 0, Row: 4, Pattern: pattern.Rowstripe0, HCFirst: 14_000, Found: true},
		{Chip: 5, Row: 9, Pattern: pattern.Checkered0, HCFirst: 0, Found: false},
	}
	var col bytes.Buffer
	if err := EncodeColumnar(&col, h, recs); err != nil {
		t.Fatal(err)
	}
	good := col.Bytes()

	// Every column named as the schema wants, but Chip declared a float
	// column with a well-formed 8-byte-per-row payload: it parses, yet an
	// integer reader of Chip would find no ints.
	mistypedCols, err := ExtractColumns(KindHCFirst, recs)
	if err != nil {
		t.Fatal(err)
	}
	mistypedCols.Cols[0] = Column{Name: "Chip", Type: ColFloat, Floats: make([]float64, len(recs))}
	mistyped, err := encodeColumnSet(h, mistypedCols)
	if err != nil {
		t.Fatal(err)
	}
	unknown := h
	unknown.Kind = "no-such-kind"
	unknownKind, err := encodeColumnSet(unknown, mistypedCols)
	if err != nil {
		t.Fatal(err)
	}

	// One-row artifacts holding a single column whose payload carries a
	// length varint near 2^63 (or past it): a bounds check that adds the
	// length to the offset, or converts it to int first, overflows and
	// lets the decoder panic.
	hj, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	huge := func(typ uint8, payload []byte) []byte {
		b := appendString(good[:5:5], string(hj)) // magic, version, header
		b = appendUvarint(appendUvarint(b, 1), 1) // one row, one column
		b = append(appendString(b, "Col"), typ)
		return append(appendUvarint(b, uint64(len(payload))), payload...)
	}

	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       append([]byte("nope"), good[4:]...),
		"bad version":     append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated":       good[:len(good)-3],
		"trailing":        append(append([]byte{}, good...), 0x00),
		"mistyped column": mistyped,
		"unknown kind":    unknownKind,
		"huge header":     appendUvarint(good[:5:5], 1<<63-1),
		"huge bytes row":  huge(ColBytes, appendUvarint(nil, 1<<63)),
		"huge dict label": huge(ColDict, appendUvarint([]byte{1}, 1<<63-1)),
		"huge int list":   huge(ColIntList, appendUvarint(nil, 1<<63+1)),
	}
	for name, data := range cases {
		if _, err := DecodeColumnar(bytes.NewReader(data)); err == nil {
			t.Errorf("%s artifact decoded without error", name)
		}
		// A file (what the store hands over) takes the Stat-sized read.
		if _, err := DecodeColumnar(artifactFile(t, data)); err == nil {
			t.Errorf("%s artifact decoded from a file without error", name)
		}
	}

	// A kind/schema mismatch inside an otherwise valid artifact is
	// rejected at Records time.
	cs, err := DecodeColumnar(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := DecodeColumnar(artifactFile(t, good))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, cs) {
		t.Error("artifact decoded from a file differs from the in-memory decode")
	}
	cs.Header.Kind = string(KindBER)
	if _, err := cs.Records(); err == nil {
		t.Error("kind/schema mismatch produced records")
	}
}

// artifactFile writes data to a temporary file and returns it open for
// reading.
func artifactFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.hbmc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestColumnarSchemaPinned pins every kind's columnar schema. The schema
// is derived from the record struct - one column per field, in order - so
// adding, removing, renaming, retyping or reordering a record field
// silently changes the .hbmc layout. A deliberate change must bump
// columnarVersion (old artifacts then stop decoding as the new layout)
// and update the lists below in the same commit.
func TestColumnarSchemaPinned(t *testing.T) {
	t.Parallel()
	cell := []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Pseudo", ColInt}, {"Bank", ColInt}, {"Row", ColInt}}
	with := func(more ...colSpec) []colSpec { return append(append([]colSpec(nil), cell...), more...) }
	want := map[Kind][]colSpec{
		KindBER:     with(colSpec{"Pattern", ColDict}, colSpec{"WCDP", ColBool}, colSpec{"BERPercent", ColFloat}, colSpec{"Mask", ColBytes}),
		KindHCFirst: with(colSpec{"Pattern", ColDict}, colSpec{"WCDP", ColBool}, colSpec{"HCFirst", ColInt}, colSpec{"Found", ColBool}),
		KindHCNth: {{"Chip", ColInt}, {"Channel", ColInt}, {"Row", ColInt},
			{"Pattern", ColDict}, {"HC", ColIntList}, {"Found", ColBool}},
		KindVariability: {{"Chip", ColInt}, {"Row", ColInt}, {"MinHC", ColInt}, {"MaxHC", ColInt},
			{"Iterations", ColInt}, {"MeasuredRatios", ColBool}},
		KindRowPressBER: {{"Chip", ColInt}, {"Channel", ColInt}, {"TAggON", ColInt},
			{"BERPercent", ColFloat}, {"RetentionBERPercent", ColFloat}, {"Rows", ColInt}},
		KindRowPressHC: {{"Chip", ColInt}, {"Channel", ColInt}, {"Row", ColInt}, {"TAggON", ColInt},
			{"HCFirst", ColInt}, {"Found", ColBool}, {"WithinWindow", ColBool}},
		KindBypass: {{"Chip", ColInt}, {"Row", ColInt}, {"Dummies", ColInt}, {"AggActs", ColInt},
			{"BERPercent", ColFloat}},
		KindAging: {{"Chip", ColInt}, {"Channel", ColInt}, {"Row", ColInt},
			{"OldBERPercent", ColFloat}, {"NewBERPercent", ColFloat}},
		KindVRD: with(colSpec{"Pattern", ColDict}, colSpec{"Trials", ColInt}, colSpec{"Found", ColInt},
			colSpec{"MinHC", ColInt}, colSpec{"MaxHC", ColInt}, colSpec{"MeanHC", ColFloat},
			colSpec{"PHC", ColInt}, colSpec{"HCs", ColIntList}),
		KindColDisturb: with(colSpec{"Distance", ColInt}, colSpec{"Stripe", ColInt}, colSpec{"Reads", ColInt},
			colSpec{"Flips", ColInt}, colSpec{"ColFlips", ColIntList}, colSpec{"FirstDisturb", ColInt},
			colSpec{"Found", ColBool}),
	}
	if len(want) != len(Kinds()) {
		t.Errorf("pinned %d schemas for %d registered kinds", len(want), len(Kinds()))
	}
	for _, kind := range Kinds() {
		d, err := LookupKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := d.columns(); !reflect.DeepEqual(got, want[kind]) {
			t.Errorf("%s columnar schema changed - bump columnarVersion (now %d) and re-pin:\n got  %v\n want %v",
				kind, columnarVersion, got, want[kind])
		}
	}
}
