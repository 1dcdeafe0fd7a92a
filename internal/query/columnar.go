package query

import (
	"fmt"

	"hbmrd/internal/core"
)

// ComputeColumnar runs one aggregation directly over a sweep's columnar
// artifact: filters evaluate as column scans, group keys read the
// dimension arrays, and reducers consume the metric arrays - no typed
// record slice and no per-record row maps are ever materialized. Compute
// over decoded records transposes them into the same columns and reads
// them through the same accessors, so for the same records and Env the
// two produce byte-identical Aggregates.
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
