// Package serve is the hbmrdd sweep service: sweeps are submitted as
// specs over HTTP, executed on the bounded sweep engine, streamed live as
// NDJSON, checkpointed on shutdown, and deduplicated through the
// content-addressed result store - a finished sweep with the same
// fingerprint is served from disk instead of re-executed. The read side
// rides the same store: the catalog lists finished sweeps with their
// spec metadata, stored records decode back to typed JSON, and POST
// /query runs internal/query aggregation specs whose results are
// content-addressed into the store's derived cache, so repeated
// identical queries never re-read the raw records.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/rowmap"
)

// SweepSpec is the wire form of one sweep request: which experiment to
// run, on which chips and geometry, with which runner config. Everything
// that feeds the fingerprint is in the spec, so identical specs hit the
// store.
type SweepSpec struct {
	// Kind selects the experiment: one of core.Kinds() ("ber",
	// "hcfirst", ...).
	Kind string `json:"kind"`
	// Chips are the study chip indices (default: all six).
	Chips []int `json:"chips,omitempty"`
	// Geometry is a preset name (default: the paper's HBM2_8Gb).
	Geometry string `json:"geometry,omitempty"`
	// IdentityMapping disables the vendor row swizzle, as experiments that
	// reason in physical rows do.
	IdentityMapping bool `json:"identity_mapping,omitempty"`
	// Config is the runner config for Kind (core.BERConfig and friends),
	// with unset fields taking the runner's defaults. Unknown fields are
	// rejected so a typo cannot silently run the wrong sweep.
	Config json.RawMessage `json:"config,omitempty"`
	// Shard, when set, restricts execution to the contiguous cell range
	// [Start, End) of the sweep's plan. The job runs under the shard's
	// sub-fingerprint (core.ShardFingerprint of the parent sweep's), so
	// shards dedup, spool, checkpoint, and store exactly like whole
	// sweeps. Set by the distributed coordinator (internal/fabric);
	// rejected for aging sweeps, which cannot shard.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// ShardSpec is the wire form of a plan cell range [Start, End).
type ShardSpec struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Sweep is a resolved spec: the fleet is built, the config decoded and
// bound to its runner, and the fingerprint computed - ready to look up in
// the store or execute.
type Sweep struct {
	Spec        SweepSpec
	Kind        core.Kind
	Fingerprint string
	// Geometry is the resolved preset name and Chips the resolved chip
	// indices (the spec's fields with defaults applied) - the catalog
	// metadata recorded alongside the finished sweep in the store. Ranks
	// and DataRateMbps come from the resolved preset (rank count per
	// pseudo channel; per-pin data rate, 0 for hand-rolled presets).
	Geometry     string
	Ranks        int
	DataRateMbps int
	Chips        []int
	// Cells is the full plan's cell count (0 for aging, which has no
	// single plan) - the bound a coordinator shards against.
	Cells int
	// Parent, ShardStart and ShardEnd carry shard lineage when the spec
	// requested a shard: Parent is the full sweep's fingerprint and
	// Fingerprint the shard's sub-fingerprint.
	Parent     string
	ShardStart int
	ShardEnd   int

	run func(ctx context.Context, opts ...core.RunOption) error
}

// Shardable reports whether a coordinator can split this sweep: it must
// have a plan of more than one cell and not itself be a shard.
func (s *Sweep) Shardable() bool {
	return s.Parent == "" && s.Cells > 1
}

// Run executes the sweep. Records and progress flow exclusively through
// the caller's sink options; the in-memory result slice is discarded.
func (s *Sweep) Run(ctx context.Context, opts ...core.RunOption) error {
	if s.run == nil {
		return fmt.Errorf("serve: sweep %s was released after execution", s.Fingerprint)
	}
	return s.run(ctx, opts...)
}

// release drops the runner closure - and with it the built chip fleet -
// once the sweep has executed. Identity fields (Kind, Fingerprint, Spec)
// stay usable for status reporting.
func (s *Sweep) release() { s.run = nil }

// Resolve validates the spec and binds it to a runner.
func Resolve(spec SweepSpec) (*Sweep, error) {
	kind := core.Kind(spec.Kind)
	chips := spec.Chips
	if len(chips) == 0 {
		chips = core.AllChips()
	}
	var chipOpts []hbm.Option
	preset := hbm.DefaultPreset()
	if spec.Geometry != "" {
		p, err := hbm.LookupPreset(spec.Geometry)
		if err != nil {
			return nil, err
		}
		preset = p
		chipOpts = append(chipOpts, hbm.WithGeometry(preset))
	}
	g := preset.Geometry
	if spec.IdentityMapping {
		chipOpts = append(chipOpts, hbm.WithMapper(rowmap.Identity{NumRows: g.Rows}))
	}
	fleet, err := core.NewFleet(chips, chipOpts...)
	if err != nil {
		return nil, err
	}

	s := &Sweep{Spec: spec, Kind: kind, Geometry: preset.Name,
		Ranks: g.NumRanks(), DataRateMbps: preset.DataRateMbps, Chips: chips}
	d, err := core.LookupKind(kind)
	if err != nil {
		return nil, fmt.Errorf("serve: unknown sweep kind %q (have: %v)", spec.Kind, core.Kinds())
	}
	cfg := d.NewConfig()
	if err := decodeConfig(spec.Config, cfg); err != nil {
		return nil, err
	}

	fp, err := core.FingerprintFor(kind, fleet, cfg)
	if err != nil {
		return nil, err
	}
	s.Fingerprint = fp
	if cells, err := core.PlanSize(kind, fleet, cfg); err == nil {
		s.Cells = cells
	}
	var shard []core.RunOption
	if spec.Shard != nil {
		sh := *spec.Shard
		if s.Cells == 0 {
			return nil, fmt.Errorf("serve: %s sweeps cannot be sharded", kind)
		}
		if sh.Start < 0 || sh.End > s.Cells || sh.Start >= sh.End {
			return nil, fmt.Errorf("serve: shard range [%d:%d) invalid for a plan of %d cells", sh.Start, sh.End, s.Cells)
		}
		s.Parent = fp
		s.ShardStart, s.ShardEnd = sh.Start, sh.End
		s.Fingerprint = core.ShardFingerprint(fp, sh.Start, sh.End)
		shard = append(shard, core.WithShard(core.ShardRange{Start: sh.Start, End: sh.End}))
	}
	s.run = func(ctx context.Context, opts ...core.RunOption) error {
		_, err := d.Run(ctx, fleet, cfg, append(opts, shard...)...)
		return err
	}
	return s, nil
}

// decodeConfig decodes a spec's runner config strictly: unknown fields
// are errors, and trailing garbage is rejected.
func decodeConfig(raw json.RawMessage, into any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("serve: bad sweep config: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after sweep config")
	}
	return nil
}
