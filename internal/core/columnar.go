package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"reflect"

	"hbmrd/internal/pattern"
)

// Columnar sweep encoding: the compact binary artifact the store writes
// alongside a finished sweep's JSONL. Records are transposed into
// per-field typed arrays - delta/varint integers, raw float64 columns,
// dictionary-encoded pattern labels, bitset booleans - behind a
// self-describing header (kind, column schema, row count). A kind's schema
// is its record struct's fields, in order (see kinds.go). JSONL stays
// the interchange contract: EncodeColumnar(DecodeRecords(jsonl)) followed
// by DecodeColumnar and EncodeRecords reproduces the original JSONL byte
// for byte, for every record kind (the columnar round-trip contract
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

var (
	patternType = reflect.TypeOf(pattern.Pattern(0))
	intsType    = reflect.TypeOf([]int(nil))
	bytesType   = reflect.TypeOf([]byte(nil))
)

// schemaOf derives a record type's column schema: one column per field,
// in declaration order (which is also the JSONL field order), named after
// the field and typed by its Go type. Pattern fields are dictionary
// columns; int-kinded fields (including hbm.TimePS) are integer columns.
func schemaOf(rt reflect.Type) []colSpec {
	specs := make([]colSpec, rt.NumField())
	for i := range specs {
		f := rt.Field(i)
		var typ uint8
		switch k := f.Type.Kind(); {
		case f.Type == patternType:
			typ = ColDict
		case k == reflect.Int || k == reflect.Int64:
			typ = ColInt
		case k == reflect.Float64:
			typ = ColFloat
		case k == reflect.Bool:
			typ = ColBool
		case f.Type == intsType:
			typ = ColIntList
		case f.Type == bytesType:
			typ = ColBytes
		default:
			panic(fmt.Sprintf("core: %s.%s has no columnar type", rt.Name(), f.Name))
		}
		specs[i] = colSpec{f.Name, typ}
	}
	return specs
}

// ExtractColumns transposes a kind's typed record slice (the shape
// DecodeRecords returns and the runners produce) into its columnar form:
// one column per record field, in field order (which is also the JSONL
// field order), named after the field. The schema is the kind's
// registered one, derived from its record type.
func ExtractColumns(kind Kind, records any) (*ColumnSet, error) {
	d, err := LookupKind(kind)
	if err != nil {
		return nil, err
	}
	rt, specs := d.columns()
	rv := reflect.ValueOf(records)
	if !rv.IsValid() || rv.Type() != reflect.SliceOf(rt) {
		return nil, fmt.Errorf("core: unsupported record slice %T for kind %s", records, kind)
	}
	n := rv.Len()
	cs := &ColumnSet{N: n, Cols: make([]Column, len(specs))}
	for f, sp := range specs {
		c := &cs.Cols[f]
		*c = Column{Name: sp.name, Type: sp.typ}
		field := func(i int) reflect.Value { return rv.Index(i).Field(f) }
		switch sp.typ {
		case ColInt:
			c.Ints = make([]int64, n)
			for i := range c.Ints {
				c.Ints[i] = field(i).Int()
			}
		case ColDict:
			c.Ints = make([]int64, n)
			for i := range c.Ints {
				c.Ints[i] = c.labelIndex(pattern.Pattern(field(i).Int()).String())
			}
		case ColFloat:
			c.Floats = make([]float64, n)
			for i := range c.Floats {
				c.Floats[i] = field(i).Float()
			}
		case ColBool:
			c.Bools = make([]bool, n)
			for i := range c.Bools {
				c.Bools[i] = field(i).Bool()
			}
		case ColIntList:
			c.IntLists = make([][]int, n)
			for i := range c.IntLists {
				// Boxing the field's address, not the slice, allocates nothing.
				c.IntLists[i] = *field(i).Addr().Interface().(*[]int)
			}
		case ColBytes:
			c.Bytes = make([][]byte, n)
			for i := range c.Bytes {
				c.Bytes[i] = field(i).Bytes()
			}
		}
	}
	return cs, nil
}

// labelIndex returns label's index in the column's dictionary, appending
// it on first sight, so dictionary order is first-appearance order.
func (c *Column) labelIndex(label string) int64 {
	for j, l := range c.Labels {
		if l == label {
			return int64(j)
		}
	}
	c.Labels = append(c.Labels, label)
	return int64(len(c.Labels) - 1)
}

// schema checks the column set against its kind's registered schema -
// the same column names and types, in record-field order - and returns
// the kind's record type and schema. DecodeColumnar and Records both
// apply it, so no reader of a column set ever indexes a value slice its
// column does not carry.
func (cs *ColumnSet) schema() (reflect.Type, []colSpec, error) {
	kind := Kind(cs.Header.Kind)
	d, err := LookupKind(kind)
	if err != nil {
		return nil, nil, err
	}
	rt, specs := d.columns()
	if len(cs.Cols) != len(specs) {
		return nil, nil, fmt.Errorf("core: columnar %s sweep has %d columns, schema wants %d", kind, len(cs.Cols), len(specs))
	}
	for i, sp := range specs {
		if cs.Cols[i].Name != sp.name || cs.Cols[i].Type != sp.typ {
			return nil, nil, fmt.Errorf("core: columnar %s sweep column %d is %s/%d, schema wants %s/%d",
				kind, i, cs.Cols[i].Name, cs.Cols[i].Type, sp.name, sp.typ)
		}
	}
	return rt, specs, nil
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
	rt, specs, err := cs.schema()
	if err != nil {
		return nil, err
	}
	out := reflect.MakeSlice(reflect.SliceOf(rt), cs.N, cs.N)
	for f := range specs {
		c := &cs.Cols[f]
		for i := 0; i < cs.N; i++ {
			v := out.Index(i).Field(f)
			switch c.Type {
			case ColInt:
				v.SetInt(c.Ints[i])
			case ColDict:
				p, err := parsePatternLabel(c.Label(i))
				if err != nil {
					return nil, err
				}
				v.SetInt(int64(p))
			case ColFloat:
				v.SetFloat(c.Floats[i])
			case ColBool:
				v.SetBool(c.Bools[i])
			case ColIntList:
				v.Set(reflect.ValueOf(c.IntLists[i]))
			case ColBytes:
				v.SetBytes(c.Bytes[i])
			}
		}
	}
	return out.Interface(), nil
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
	// Compare against the bytes left: r.pos+n overflows for a crafted
	// length near 2^63.
	if n < 0 || n > len(r.b)-r.pos {
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
			// Bound the length as a uint64: converted first, a length
			// past 2^63 turns negative and slips under the bound.
			if l-1 > uint64(len(payload)) {
				return fmt.Errorf("core: columnar int list of %d elements exceeds payload", l-1)
			}
			list := make([]int, l-1)
			prev := 0
			for j := range list {
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
	out, err := encodeColumnSet(h, cs)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// encodeColumnSet serializes a column set under header h.
func encodeColumnSet(h SweepHeader, cs *ColumnSet) ([]byte, error) {
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, err
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
	return out, nil
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

// DecodeColumnar parses a columnar artifact back into its column set. An
// artifact whose columns do not match its kind's registered schema, name
// for name and type for type, is rejected like any other malformed one.
// Call Records on the result to rebuild the typed record slice; feeding
// that to EncodeRecords reproduces the original JSONL byte for byte.
func DecodeColumnar(rd io.Reader) (*ColumnSet, error) {
	return DecodeColumnarProjected(rd, nil)
}

// DecodeColumnarProjected is DecodeColumnar that parses only the payloads
// of the columns want accepts (nil accepts every column). Every column's
// name, type and length frame is still read, and the schema and
// trailing-bytes checks still run; a skipped column keeps its name and
// type and holds no values, so damage inside its payload goes unnoticed.
func DecodeColumnarProjected(rd io.Reader, want func(name string) bool) (*ColumnSet, error) {
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
		if want != nil && !want(name) {
			continue
		}
		if err := decodeColumn(&cs.Cols[i], payload, cs.N); err != nil {
			return nil, err
		}
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("core: columnar artifact has %d trailing bytes", len(b)-r.pos)
	}
	if _, _, err := cs.schema(); err != nil {
		return nil, err
	}
	return cs, nil
}
