package query

import (
	"fmt"
	"slices"

	"hbmrd/internal/core"
)

// ComputeColumnar runs one aggregation directly over a sweep's columnar
// artifact: filters evaluate as column scans, group keys read the
// dimension arrays, and reducers consume the metric arrays - no typed
// record slice and no per-record row maps are ever materialized. It is
// the pure pipeline under Engine.Run - no store, no cache - and is
// deterministic per the package contract.
func ComputeColumnar(cs *core.ColumnSet, spec Spec, env Env) (*Aggregate, error) {
	cspec, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	kind := core.Kind(cs.Header.Kind)
	src, err := columnarSource(kind, cs, env)
	if err != nil {
		return nil, err
	}
	return computeOver(kind, src, cspec)
}

// columnarSource serves a kind's declared dimensions and metrics (see
// kindFields) over a column set. Each accessor is built on first request
// from the typed columns its field names; the set must carry the kind's
// registered schema, as every set DecodeColumnar or ExtractColumns returns
// does.
func columnarSource(kind core.Kind, cs *core.ColumnSet, env Env) (rowSource, error) {
	fields, ok := kindFields[kind]
	if !ok {
		return rowSource{}, fmt.Errorf("query: unsupported sweep kind %q", kind)
	}
	find := func(name string, dim bool) (field, []*core.Column) {
		for _, f := range fields {
			if f.name == name && (f.dim != nil) == dim {
				cols := make([]*core.Column, len(f.cols))
				for i, n := range f.cols {
					cols[i] = cs.Col(n)
				}
				return f, cols
			}
		}
		return field{}, nil
	}
	return rowSource{
		n: cs.Len(),
		dim: func(name string) func(i int) dimVal {
			if f, cols := find(name, true); f.dim != nil {
				return f.dim(cols, env)
			}
			return nil
		},
		metric: func(name string) func(i int) (float64, bool) {
			if f, cols := find(name, false); f.met != nil {
				return f.met(cols)
			}
			return nil
		},
	}, nil
}

// specColumns returns the record columns a spec can read: the columns
// behind its metric, group-by and where names in every kind's vocabulary.
// Taking every kind keeps the set complete whatever kind the twin turns
// out to hold; a name no kind declares adds nothing and fails later as a
// spec error.
func specColumns(spec Spec) map[string]bool {
	names := append([]string{spec.Metric}, spec.GroupBy...)
	for _, w := range spec.Where {
		names = append(names, w.Dim)
	}
	cols := map[string]bool{}
	for _, fields := range kindFields {
		for _, f := range fields {
			if slices.Contains(names, f.name) {
				for _, c := range f.cols {
					cols[c] = true
				}
			}
		}
	}
	return cols
}
