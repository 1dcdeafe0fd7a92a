package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"

	"hbmrd/internal/pattern"
)

// Columnar sweep encoding: the compact binary artifact the store writes
// alongside a finished sweep's JSONL. Records are transposed into
// per-field typed arrays - delta/varint integers, raw float64 columns,
// dictionary-encoded pattern labels, bitset booleans - behind a
// self-describing header (kind, column schema, row count). JSONL stays
// the interchange contract: EncodeColumnar(DecodeRecords(jsonl)) followed
// by DecodeColumnar and EncodeRecords reproduces the original JSONL byte
// for byte, for all eight record kinds (the columnar round-trip contract
// the golden CI job enforces), so golden digests and fingerprints are
// untouched by the artifact's existence. The win is on the read side: a
// column decode is a handful of array scans instead of one reflective
// JSON parse per record, and aggregation pipelines can filter and reduce
// straight over the arrays without materializing records at all (see
// internal/query).

// columnarMagic opens every columnar artifact; columnarVersion is bumped
// on incompatible layout changes (decoders reject unknown versions).
var columnarMagic = [4]byte{'h', 'b', 'm', 'c'}

const columnarVersion = 1

// Column element types. The payload layout per type:
//
//	ColInt:     one zigzag varint per row, delta-coded against the
//	            previous row (plan-ordered dimensions are near-sorted, so
//	            deltas are tiny).
//	ColFloat:   8 bytes per row, IEEE 754 little-endian. Floats must
//	            round-trip exactly, so no lossy packing.
//	ColBool:    a bitset, one bit per row, LSB-first within each byte.
//	ColDict:    a string dictionary (count, then len-prefixed entries)
//	            followed by one varint dictionary index per row. Used for
//	            pattern labels, which draw from a four-entry vocabulary.
//	ColIntList: per row, a varint length+1 (0 encodes a nil slice) then
//	            that many zigzag varints, delta-coded within the row
//	            (HCNth's HC lists are monotonically non-decreasing).
//	ColBytes:   per row, a varint length+1 (0 encodes nil) then raw
//	            bytes. Used for BER flip masks, preserving nil vs empty.
const (
	ColInt uint8 = iota + 1
	ColFloat
	ColBool
	ColDict
	ColIntList
	ColBytes
)

// Column is one decoded typed array plus its schema entry. Exactly one of
// the value slices is populated, per Type; Labels accompanies Ints for
// ColDict (Ints holds dictionary indexes).
type Column struct {
	Name string
	Type uint8

	Ints     []int64
	Floats   []float64
	Bools    []bool
	Labels   []string // ColDict dictionary, indexed by Ints
	IntLists [][]int
	Bytes    [][]byte
}

// Int returns row i of an integer column.
func (c *Column) Int(i int) int64 { return c.Ints[i] }

// Float returns row i of a float column.
func (c *Column) Float(i int) float64 { return c.Floats[i] }

// Bool returns row i of a boolean column.
func (c *Column) Bool(i int) bool { return c.Bools[i] }

// Label returns row i of a dictionary column.
func (c *Column) Label(i int) string { return c.Labels[c.Ints[i]] }

// ColumnSet is one decoded columnar sweep: the sweep header, the row
// (record) count, and the typed columns in schema order.
type ColumnSet struct {
	Header SweepHeader
	N      int
	Cols   []Column

	byName map[string]*Column
}

// Len reports the record count.
func (cs *ColumnSet) Len() int { return cs.N }

// Col returns the named column, or nil when the schema has none.
func (cs *ColumnSet) Col(name string) *Column {
	if cs.byName == nil {
		cs.byName = make(map[string]*Column, len(cs.Cols))
		for i := range cs.Cols {
			cs.byName[cs.Cols[i].Name] = &cs.Cols[i]
		}
	}
	return cs.byName[name]
}

// colSpec is one schema entry of a kind's columnar layout.
type colSpec struct {
	name string
	typ  uint8
}

// columnarSchema returns a kind's column schema, in the record struct's
// field order (which is also the JSONL field order). Column names are the
// record field names, so the artifact is self-describing against the
// interchange format.
func columnarSchema(kind Kind) ([]colSpec, error) {
	switch kind {
	case KindBER:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Pseudo", ColInt}, {"Bank", ColInt}, {"Row", ColInt},
			{"Pattern", ColDict}, {"WCDP", ColBool}, {"BERPercent", ColFloat}, {"Mask", ColBytes}}, nil
	case KindHCFirst:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Pseudo", ColInt}, {"Bank", ColInt}, {"Row", ColInt},
			{"Pattern", ColDict}, {"WCDP", ColBool}, {"HCFirst", ColInt}, {"Found", ColBool}}, nil
	case KindHCNth:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Row", ColInt},
			{"Pattern", ColDict}, {"HC", ColIntList}, {"Found", ColBool}}, nil
	case KindVariability:
		return []colSpec{{"Chip", ColInt}, {"Row", ColInt}, {"MinHC", ColInt}, {"MaxHC", ColInt},
			{"Iterations", ColInt}, {"MeasuredRatios", ColBool}}, nil
	case KindRowPressBER:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"TAggON", ColInt},
			{"BERPercent", ColFloat}, {"RetentionBERPercent", ColFloat}, {"Rows", ColInt}}, nil
	case KindRowPressHC:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Row", ColInt}, {"TAggON", ColInt},
			{"HCFirst", ColInt}, {"Found", ColBool}, {"WithinWindow", ColBool}}, nil
	case KindBypass:
		return []colSpec{{"Chip", ColInt}, {"Row", ColInt}, {"Dummies", ColInt}, {"AggActs", ColInt},
			{"BERPercent", ColFloat}}, nil
	case KindAging:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Row", ColInt},
			{"OldBERPercent", ColFloat}, {"NewBERPercent", ColFloat}}, nil
	case KindVRD:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Pseudo", ColInt}, {"Bank", ColInt}, {"Row", ColInt},
			{"Pattern", ColDict}, {"Trials", ColInt}, {"Found", ColInt}, {"MinHC", ColInt}, {"MaxHC", ColInt},
			{"MeanHC", ColFloat}, {"PHC", ColInt}, {"HCs", ColIntList}}, nil
	case KindColDisturb:
		return []colSpec{{"Chip", ColInt}, {"Channel", ColInt}, {"Pseudo", ColInt}, {"Bank", ColInt}, {"Row", ColInt},
			{"Distance", ColInt}, {"Stripe", ColInt}, {"Reads", ColInt}, {"Flips", ColInt},
			{"ColFlips", ColIntList}, {"FirstDisturb", ColInt}, {"Found", ColBool}}, nil
	}
	return nil, fmt.Errorf("core: no columnar schema for kind %q", kind)
}

// ExtractColumns transposes a kind's typed record slice (the shape
// DecodeRecords returns and the runners produce) into its columnar form.
func ExtractColumns(kind Kind, records any) (*ColumnSet, error) {
	specs, err := columnarSchema(kind)
	if err != nil {
		return nil, err
	}
	n := RecordCount(records)
	cs := &ColumnSet{N: n, Cols: make([]Column, len(specs))}
	for i, sp := range specs {
		cs.Cols[i] = Column{Name: sp.name, Type: sp.typ}
		switch sp.typ {
		case ColInt, ColDict:
			cs.Cols[i].Ints = make([]int64, 0, n)
		case ColFloat:
			cs.Cols[i].Floats = make([]float64, 0, n)
		case ColBool:
			cs.Cols[i].Bools = make([]bool, 0, n)
		case ColIntList:
			cs.Cols[i].IntLists = make([][]int, 0, n)
		case ColBytes:
			cs.Cols[i].Bytes = make([][]byte, 0, n)
		}
	}
	col := func(i int) *Column { return &cs.Cols[i] }
	pat := func(i int, p pattern.Pattern) {
		c := col(i)
		label := p.String()
		for j, l := range c.Labels {
			if l == label {
				c.Ints = append(c.Ints, int64(j))
				return
			}
		}
		c.Labels = append(c.Labels, label)
		c.Ints = append(c.Ints, int64(len(c.Labels)-1))
	}
	switch recs := records.(type) {
	case []BERRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Pseudo))
			col(3).Ints = append(col(3).Ints, int64(r.Bank))
			col(4).Ints = append(col(4).Ints, int64(r.Row))
			pat(5, r.Pattern)
			col(6).Bools = append(col(6).Bools, r.WCDP)
			col(7).Floats = append(col(7).Floats, r.BERPercent)
			col(8).Bytes = append(col(8).Bytes, r.Mask)
		}
	case []HCFirstRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Pseudo))
			col(3).Ints = append(col(3).Ints, int64(r.Bank))
			col(4).Ints = append(col(4).Ints, int64(r.Row))
			pat(5, r.Pattern)
			col(6).Bools = append(col(6).Bools, r.WCDP)
			col(7).Ints = append(col(7).Ints, int64(r.HCFirst))
			col(8).Bools = append(col(8).Bools, r.Found)
		}
	case []HCNthRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Row))
			pat(3, r.Pattern)
			col(4).IntLists = append(col(4).IntLists, r.HC)
			col(5).Bools = append(col(5).Bools, r.Found)
		}
	case []VariabilityRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Row))
			col(2).Ints = append(col(2).Ints, int64(r.MinHC))
			col(3).Ints = append(col(3).Ints, int64(r.MaxHC))
			col(4).Ints = append(col(4).Ints, int64(r.Iterations))
			col(5).Bools = append(col(5).Bools, r.MeasuredRatios)
		}
	case []RowPressBERRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.TAggON))
			col(3).Floats = append(col(3).Floats, r.BERPercent)
			col(4).Floats = append(col(4).Floats, r.RetentionBERPercent)
			col(5).Ints = append(col(5).Ints, int64(r.Rows))
		}
	case []RowPressHCRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Row))
			col(3).Ints = append(col(3).Ints, int64(r.TAggON))
			col(4).Ints = append(col(4).Ints, int64(r.HCFirst))
			col(5).Bools = append(col(5).Bools, r.Found)
			col(6).Bools = append(col(6).Bools, r.WithinWindow)
		}
	case []BypassRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Row))
			col(2).Ints = append(col(2).Ints, int64(r.Dummies))
			col(3).Ints = append(col(3).Ints, int64(r.AggActs))
			col(4).Floats = append(col(4).Floats, r.BERPercent)
		}
	case []AgingRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Row))
			col(3).Floats = append(col(3).Floats, r.OldBERPercent)
			col(4).Floats = append(col(4).Floats, r.NewBERPercent)
		}
	case []VRDRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Pseudo))
			col(3).Ints = append(col(3).Ints, int64(r.Bank))
			col(4).Ints = append(col(4).Ints, int64(r.Row))
			pat(5, r.Pattern)
			col(6).Ints = append(col(6).Ints, int64(r.Trials))
			col(7).Ints = append(col(7).Ints, int64(r.Found))
			col(8).Ints = append(col(8).Ints, int64(r.MinHC))
			col(9).Ints = append(col(9).Ints, int64(r.MaxHC))
			col(10).Floats = append(col(10).Floats, r.MeanHC)
			col(11).Ints = append(col(11).Ints, int64(r.PHC))
			col(12).IntLists = append(col(12).IntLists, r.HCs)
		}
	case []ColDisturbRecord:
		for _, r := range recs {
			col(0).Ints = append(col(0).Ints, int64(r.Chip))
			col(1).Ints = append(col(1).Ints, int64(r.Channel))
			col(2).Ints = append(col(2).Ints, int64(r.Pseudo))
			col(3).Ints = append(col(3).Ints, int64(r.Bank))
			col(4).Ints = append(col(4).Ints, int64(r.Row))
			col(5).Ints = append(col(5).Ints, int64(r.Distance))
			col(6).Ints = append(col(6).Ints, int64(r.Stripe))
			col(7).Ints = append(col(7).Ints, int64(r.Reads))
			col(8).Ints = append(col(8).Ints, int64(r.Flips))
			col(9).IntLists = append(col(9).IntLists, r.ColFlips)
			col(10).Ints = append(col(10).Ints, int64(r.FirstDisturb))
			col(11).Bools = append(col(11).Bools, r.Found)
		}
	default:
		return nil, fmt.Errorf("core: unsupported record slice %T for kind %s", records, kind)
	}
	return cs, nil
}

// parsePatternLabel inverts Pattern.String for any value, including the
// out-of-vocabulary "Pattern(N)" form, so encode -> decode is total.
func parsePatternLabel(label string) (pattern.Pattern, error) {
	for _, p := range pattern.All() {
		if p.String() == label {
			return p, nil
		}
	}
	var n int
	if _, err := fmt.Sscanf(label, "Pattern(%d)", &n); err == nil {
		return pattern.Pattern(n), nil
	}
	return 0, fmt.Errorf("core: unknown pattern label %q", label)
}

// Records rebuilds the typed record slice - the exact shape DecodeRecords
// returns - from the column set. It is the inverse of ExtractColumns.
func (cs *ColumnSet) Records() (any, error) {
	kind := Kind(cs.Header.Kind)
	specs, err := columnarSchema(kind)
	if err != nil {
		return nil, err
	}
	if len(cs.Cols) != len(specs) {
		return nil, fmt.Errorf("core: columnar %s sweep has %d columns, schema wants %d", kind, len(cs.Cols), len(specs))
	}
	for i, sp := range specs {
		if cs.Cols[i].Name != sp.name || cs.Cols[i].Type != sp.typ {
			return nil, fmt.Errorf("core: columnar %s sweep column %d is %s/%d, schema wants %s/%d",
				kind, i, cs.Cols[i].Name, cs.Cols[i].Type, sp.name, sp.typ)
		}
	}
	n := cs.N
	col := func(i int) *Column { return &cs.Cols[i] }
	pat := func(ci, i int) (pattern.Pattern, error) { return parsePatternLabel(col(ci).Label(i)) }
	switch kind {
	case KindBER:
		out := make([]BERRecord, n)
		for i := range out {
			p, err := pat(5, i)
			if err != nil {
				return nil, err
			}
			out[i] = BERRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Pseudo: int(col(2).Int(i)),
				Bank: int(col(3).Int(i)), Row: int(col(4).Int(i)),
				Pattern: p, WCDP: col(6).Bool(i), BERPercent: col(7).Float(i), Mask: col(8).Bytes[i],
			}
		}
		return out, nil
	case KindHCFirst:
		out := make([]HCFirstRecord, n)
		for i := range out {
			p, err := pat(5, i)
			if err != nil {
				return nil, err
			}
			out[i] = HCFirstRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Pseudo: int(col(2).Int(i)),
				Bank: int(col(3).Int(i)), Row: int(col(4).Int(i)),
				Pattern: p, WCDP: col(6).Bool(i), HCFirst: int(col(7).Int(i)), Found: col(8).Bool(i),
			}
		}
		return out, nil
	case KindHCNth:
		out := make([]HCNthRecord, n)
		for i := range out {
			p, err := pat(3, i)
			if err != nil {
				return nil, err
			}
			out[i] = HCNthRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Row: int(col(2).Int(i)),
				Pattern: p, HC: col(4).IntLists[i], Found: col(5).Bool(i),
			}
		}
		return out, nil
	case KindVariability:
		out := make([]VariabilityRecord, n)
		for i := range out {
			out[i] = VariabilityRecord{
				Chip: int(col(0).Int(i)), Row: int(col(1).Int(i)),
				MinHC: int(col(2).Int(i)), MaxHC: int(col(3).Int(i)),
				Iterations: int(col(4).Int(i)), MeasuredRatios: col(5).Bool(i),
			}
		}
		return out, nil
	case KindRowPressBER:
		out := make([]RowPressBERRecord, n)
		for i := range out {
			out[i] = RowPressBERRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), TAggON: col(2).Int(i),
				BERPercent: col(3).Float(i), RetentionBERPercent: col(4).Float(i), Rows: int(col(5).Int(i)),
			}
		}
		return out, nil
	case KindRowPressHC:
		out := make([]RowPressHCRecord, n)
		for i := range out {
			out[i] = RowPressHCRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Row: int(col(2).Int(i)),
				TAggON: col(3).Int(i), HCFirst: int(col(4).Int(i)),
				Found: col(5).Bool(i), WithinWindow: col(6).Bool(i),
			}
		}
		return out, nil
	case KindBypass:
		out := make([]BypassRecord, n)
		for i := range out {
			out[i] = BypassRecord{
				Chip: int(col(0).Int(i)), Row: int(col(1).Int(i)),
				Dummies: int(col(2).Int(i)), AggActs: int(col(3).Int(i)), BERPercent: col(4).Float(i),
			}
		}
		return out, nil
	case KindAging:
		out := make([]AgingRecord, n)
		for i := range out {
			out[i] = AgingRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Row: int(col(2).Int(i)),
				OldBERPercent: col(3).Float(i), NewBERPercent: col(4).Float(i),
			}
		}
		return out, nil
	case KindVRD:
		out := make([]VRDRecord, n)
		for i := range out {
			p, err := pat(5, i)
			if err != nil {
				return nil, err
			}
			out[i] = VRDRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Pseudo: int(col(2).Int(i)),
				Bank: int(col(3).Int(i)), Row: int(col(4).Int(i)),
				Pattern: p, Trials: int(col(6).Int(i)), Found: int(col(7).Int(i)),
				MinHC: int(col(8).Int(i)), MaxHC: int(col(9).Int(i)),
				MeanHC: col(10).Float(i), PHC: int(col(11).Int(i)), HCs: col(12).IntLists[i],
			}
		}
		return out, nil
	case KindColDisturb:
		out := make([]ColDisturbRecord, n)
		for i := range out {
			out[i] = ColDisturbRecord{
				Chip: int(col(0).Int(i)), Channel: int(col(1).Int(i)), Pseudo: int(col(2).Int(i)),
				Bank: int(col(3).Int(i)), Row: int(col(4).Int(i)),
				Distance: int(col(5).Int(i)), Stripe: int(col(6).Int(i)), Reads: int(col(7).Int(i)),
				Flips: int(col(8).Int(i)), ColFlips: col(9).IntLists[i],
				FirstDisturb: int(col(10).Int(i)), Found: col(11).Bool(i),
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown experiment kind %q", kind)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeColumn serializes one column's payload per the type layouts
// documented on the type constants.
func encodeColumn(c *Column, n int) []byte {
	var b []byte
	switch c.Type {
	case ColInt:
		prev := int64(0)
		for _, v := range c.Ints {
			b = appendUvarint(b, zigzag(v-prev))
			prev = v
		}
	case ColFloat:
		b = make([]byte, 0, 8*len(c.Floats))
		for _, v := range c.Floats {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case ColBool:
		b = make([]byte, (n+7)/8)
		for i, v := range c.Bools {
			if v {
				b[i/8] |= 1 << (i % 8)
			}
		}
	case ColDict:
		b = appendUvarint(b, uint64(len(c.Labels)))
		for _, l := range c.Labels {
			b = appendString(b, l)
		}
		for _, v := range c.Ints {
			b = appendUvarint(b, uint64(v))
		}
	case ColIntList:
		for _, list := range c.IntLists {
			if list == nil {
				b = appendUvarint(b, 0)
				continue
			}
			b = appendUvarint(b, uint64(len(list)+1))
			prev := 0
			for _, v := range list {
				b = appendUvarint(b, zigzag(int64(v-prev)))
				prev = v
			}
		}
	case ColBytes:
		for _, p := range c.Bytes {
			if p == nil {
				b = appendUvarint(b, 0)
				continue
			}
			b = appendUvarint(b, uint64(len(p)+1))
			b = append(b, p...)
		}
	}
	return b
}

// byteReader tracks a decode position over one in-memory payload.
type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("core: truncated columnar varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.b) {
		return nil, fmt.Errorf("core: truncated columnar payload at offset %d", r.pos)
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	p, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// decodeColumn parses one column payload of n rows.
func decodeColumn(c *Column, payload []byte, n int) error {
	r := &byteReader{b: payload}
	switch c.Type {
	case ColInt:
		c.Ints = make([]int64, n)
		prev := int64(0)
		for i := 0; i < n; i++ {
			u, err := r.uvarint()
			if err != nil {
				return err
			}
			prev += unzigzag(u)
			c.Ints[i] = prev
		}
	case ColFloat:
		raw, err := r.take(8 * n)
		if err != nil {
			return err
		}
		c.Floats = make([]float64, n)
		for i := 0; i < n; i++ {
			c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case ColBool:
		raw, err := r.take((n + 7) / 8)
		if err != nil {
			return err
		}
		c.Bools = make([]bool, n)
		for i := 0; i < n; i++ {
			c.Bools[i] = raw[i/8]&(1<<(i%8)) != 0
		}
	case ColDict:
		nl, err := r.uvarint()
		if err != nil {
			return err
		}
		if nl > uint64(len(payload)) {
			return fmt.Errorf("core: columnar dictionary of %d entries exceeds payload", nl)
		}
		c.Labels = make([]string, nl)
		for i := range c.Labels {
			if c.Labels[i], err = r.str(); err != nil {
				return err
			}
		}
		c.Ints = make([]int64, n)
		for i := 0; i < n; i++ {
			u, err := r.uvarint()
			if err != nil {
				return err
			}
			if u >= nl {
				return fmt.Errorf("core: columnar dictionary index %d out of %d", u, nl)
			}
			c.Ints[i] = int64(u)
		}
	case ColIntList:
		c.IntLists = make([][]int, n)
		for i := 0; i < n; i++ {
			l, err := r.uvarint()
			if err != nil {
				return err
			}
			if l == 0 {
				continue // nil slice
			}
			length := int(l - 1)
			if length > len(payload) {
				return fmt.Errorf("core: columnar int list of %d elements exceeds payload", length)
			}
			list := make([]int, length)
			prev := 0
			for j := 0; j < length; j++ {
				u, err := r.uvarint()
				if err != nil {
					return err
				}
				prev += int(unzigzag(u))
				list[j] = prev
			}
			c.IntLists[i] = list
		}
	case ColBytes:
		c.Bytes = make([][]byte, n)
		for i := 0; i < n; i++ {
			l, err := r.uvarint()
			if err != nil {
				return err
			}
			if l == 0 {
				continue // nil slice
			}
			p, err := r.take(int(l - 1))
			if err != nil {
				return err
			}
			buf := make([]byte, len(p))
			copy(buf, p)
			c.Bytes[i] = buf
		}
	default:
		return fmt.Errorf("core: unknown columnar column type %d", c.Type)
	}
	if r.pos != len(payload) {
		return fmt.Errorf("core: columnar column %s has %d trailing payload bytes", c.Name, len(payload)-r.pos)
	}
	return nil
}

// EncodeColumnar writes a sweep's columnar artifact: magic and version,
// the JSON sweep header, the row count, and one typed column per record
// field. records must be the typed slice DecodeRecords returns for the
// header's kind.
func EncodeColumnar(w io.Writer, h SweepHeader, records any) error {
	cs, err := ExtractColumns(Kind(h.Kind), records)
	if err != nil {
		return err
	}
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	out := make([]byte, 0, 4096)
	out = append(out, columnarMagic[:]...)
	out = append(out, columnarVersion)
	out = appendUvarint(out, uint64(len(hj)))
	out = append(out, hj...)
	out = appendUvarint(out, uint64(cs.N))
	out = appendUvarint(out, uint64(len(cs.Cols)))
	for i := range cs.Cols {
		c := &cs.Cols[i]
		payload := encodeColumn(c, cs.N)
		out = appendString(out, c.Name)
		out = append(out, c.Type)
		out = appendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	_, err = w.Write(out)
	return err
}

// readArtifact reads a whole artifact. When the reader can Stat (the store
// hands over an *os.File), the buffer is sized from the file once, as
// os.ReadFile does, instead of growing by doubling as io.ReadAll does.
func readArtifact(rd io.Reader) ([]byte, error) {
	f, ok := rd.(interface{ Stat() (fs.FileInfo, error) })
	if !ok {
		return io.ReadAll(rd)
	}
	var buf bytes.Buffer
	if fi, err := f.Stat(); err == nil {
		if n := fi.Size(); n > 0 && int64(int(n)) == n {
			// MinRead spare bytes let ReadFrom observe EOF without growing.
			buf.Grow(int(n) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(rd); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeColumnar parses a columnar artifact back into its column set.
// Call Records on the result to rebuild the typed record slice; feeding
// that to EncodeRecords reproduces the original JSONL byte for byte.
func DecodeColumnar(rd io.Reader) (*ColumnSet, error) {
	b, err := readArtifact(rd)
	if err != nil {
		return nil, err
	}
	if len(b) < 5 || [4]byte(b[:4]) != columnarMagic {
		return nil, fmt.Errorf("core: not a columnar sweep artifact")
	}
	if b[4] != columnarVersion {
		return nil, fmt.Errorf("core: columnar artifact version %d, decoder speaks %d", b[4], columnarVersion)
	}
	r := &byteReader{b: b, pos: 5}
	hl, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	hj, err := r.take(int(hl))
	if err != nil {
		return nil, err
	}
	cs := &ColumnSet{}
	if err := json.Unmarshal(hj, &cs.Header); err != nil {
		return nil, fmt.Errorf("core: columnar artifact header: %w", err)
	}
	rows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if rows > uint64(len(b)) {
		return nil, fmt.Errorf("core: columnar row count %d exceeds artifact size", rows)
	}
	cs.N = int(rows)
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 64 {
		return nil, fmt.Errorf("core: columnar artifact declares %d columns", ncols)
	}
	cs.Cols = make([]Column, ncols)
	for i := range cs.Cols {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		tb, err := r.take(1)
		if err != nil {
			return nil, err
		}
		pl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		payload, err := r.take(int(pl))
		if err != nil {
			return nil, err
		}
		cs.Cols[i] = Column{Name: name, Type: tb[0]}
		if err := decodeColumn(&cs.Cols[i], payload, cs.N); err != nil {
			return nil, err
		}
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("core: columnar artifact has %d trailing bytes", len(b)-r.pos)
	}
	return cs, nil
}
