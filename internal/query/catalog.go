package query

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"hbmrd/internal/core"
	"hbmrd/internal/store"
)

// Catalog is an index over every finished sweep a store holds: the header
// metadata (kind, cells, records, bytes, generation) plus whatever spec
// metadata the producer recorded (geometry preset, chip set, raw config).
// Build one with NewCatalog; it is a point-in-time snapshot - rebuild to
// see sweeps finished since.
type Catalog struct {
	entries []store.Meta
}

// NewCatalog indexes the store's finished sweeps, sorted by fingerprint.
func NewCatalog(s *store.Store) (*Catalog, error) {
	metas, err := s.List()
	if err != nil {
		return nil, err
	}
	return &Catalog{entries: metas}, nil
}

// Len reports how many sweeps the catalog indexes.
func (c *Catalog) Len() int { return len(c.entries) }

// List returns every indexed sweep.
func (c *Catalog) List() []store.Meta {
	return append([]store.Meta(nil), c.entries...)
}

// Filter is one catalog predicate; Find keeps entries matching all of its
// filters.
type Filter func(store.Meta) bool

// ByKind keeps sweeps of one experiment kind.
func ByKind(kind string) Filter {
	return func(m store.Meta) bool { return m.Kind == kind }
}

// ByGeometry keeps sweeps run on one chip organization preset. Sweeps
// ingested from bare JSONL files carry no geometry metadata and never
// match.
func ByGeometry(preset string) Filter {
	return func(m store.Meta) bool { return m.Geometry == preset }
}

// ByChips keeps sweeps whose chip set is exactly the given indices
// (order-insensitive).
func ByChips(chips ...int) Filter {
	want := append([]int(nil), chips...)
	sort.Ints(want)
	return func(m store.Meta) bool {
		if len(m.Chips) != len(want) {
			return false
		}
		got := append([]int(nil), m.Chips...)
		sort.Ints(got)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
}

// ByConfig keeps sweeps whose recorded raw config satisfies the
// predicate. Sweeps without recorded configs never match.
func ByConfig(pred func(json.RawMessage) bool) Filter {
	return func(m store.Meta) bool { return len(m.Config) > 0 && pred(m.Config) }
}

// Find returns the entries matching every filter, in fingerprint order.
func (c *Catalog) Find(filters ...Filter) []store.Meta {
	var out []store.Meta
entryLoop:
	for _, m := range c.entries {
		for _, f := range filters {
			if !f(m) {
				continue entryLoop
			}
		}
		out = append(out, m)
	}
	return out
}

// Ingest finalizes a completed sweep JSONL file - typically one written by
// `hbmrd -out` - into the store under its header fingerprint, and returns
// the stored metadata. The file must be provably whole: it is decoded
// through the kind's record type (rejecting torn tails and malformed
// lines) and checked against the header's plan via core.VerifyComplete,
// so an interrupted sweep - which should be resumed with `hbmrd -resume`,
// not served as finished data - can never poison its fingerprint in the
// store. Aging sweeps cannot prove completeness from the file alone and
// are rejected; they enter a store through hbmrdd, which witnesses the
// run finish.
func Ingest(s *store.Store, path string) (store.Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return store.Meta{}, err
	}
	defer f.Close()
	h, recs, err := core.DecodeRecords("", f)
	if err != nil {
		return store.Meta{}, fmt.Errorf("query: ingesting %s: %w", path, err)
	}
	if err := core.VerifyComplete(h, recs); err != nil {
		return store.Meta{}, fmt.Errorf("query: ingesting %s: %w (resume the sweep instead of ingesting it)", path, err)
	}
	if err := s.PutFile(store.Meta{Fingerprint: h.Fingerprint, Kind: h.Kind}, path); err != nil {
		return store.Meta{}, err
	}
	// Read back the finalized metadata: Put filled it from the stream
	// (and an identical earlier object may have won the finalize race).
	_, stored, err := s.Path(h.Fingerprint)
	if err != nil {
		return store.Meta{}, err
	}
	return *stored, nil
}
