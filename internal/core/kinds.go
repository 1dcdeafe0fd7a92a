package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"reflect"

	"hbmrd/internal/hbm"
)

// The experiment kind registry. Each kind is defined once, below, by one
// typed descriptor: its config type and defaults, the axes of its plan,
// how resume maps checkpoint records back to plan cells, how a decoded
// stream proves it covers the whole plan, and the measurement one plan
// cell runs. The record type's fields, in declaration order, are the
// kind's columnar schema. Fingerprinting, plan sizing, decoding,
// completeness checks, the columnar codec, the Run*Context entry points
// and the hbmrdd service all read the descriptor, so adding a kind is a
// runner file, one entry here, and its query fields in internal/query.

// registry lists every kind, in Kinds() order.
var registry = []Descriptor{berKind, hcFirstKind, hcNthKind, variabilityKind,
	rowPressBERKind, rowPressHCKind, bypassKind, agingKind, vrdKind, colDisturbKind}

var (
	berKind = defineKind(&kindDef[BERConfig, BERRecord]{
		kind: KindBER,
		fill: (*BERConfig).fill,
		axes: func(c *BERConfig) planAxes { return planAxes{c.Channels, c.Pseudos, c.Banks, len(c.Rows)} },
		// One record per pattern, then the derived WCDP record.
		span: func(c *BERConfig) spanFunc { return fixedSpan(len(c.Patterns) + 1) },
		complete: wcdpRuns(func(r *BERRecord) ([5]int, bool, bool) {
			return [5]int{r.Chip, r.Channel, r.Pseudo, r.Bank, r.Row}, r.WCDP, true
		}),
		measure: (*BERConfig).measure,
	})
	hcFirstKind = defineKind(&kindDef[HCFirstConfig, HCFirstRecord]{
		kind: KindHCFirst,
		fill: (*HCFirstConfig).fill,
		axes: func(c *HCFirstConfig) planAxes { return planAxes{c.Channels, c.Pseudos, c.Banks, len(c.Rows)} },
		// One record per pattern, then a WCDP record if any pattern flipped.
		span: func(c *HCFirstConfig) spanFunc { return hcFirstSpan(len(c.Patterns)) },
		complete: wcdpRuns(func(r *HCFirstRecord) ([5]int, bool, bool) {
			return [5]int{r.Chip, r.Channel, r.Pseudo, r.Bank, r.Row}, r.WCDP, r.Found
		}),
		measure: (*HCFirstConfig).measure,
	})
	hcNthKind = defineKind(&kindDef[HCNthConfig, HCNthRecord]{
		kind: KindHCNth,
		fill: (*HCNthConfig).fill,
		axes: func(c *HCNthConfig) planAxes {
			return planAxes{c.Channels, []int{c.Pseudo}, []int{c.Bank}, len(c.Rows) * len(c.Patterns)}
		},
		span:     oneRecordSpan[HCNthConfig],
		complete: oneRecordPerCell[HCNthRecord],
		measure:  (*HCNthConfig).measure,
	})
	variabilityKind = defineKind(&kindDef[VariabilityConfig, VariabilityRecord]{
		kind: KindVariability,
		fill: (*VariabilityConfig).fill,
		axes: func(c *VariabilityConfig) planAxes {
			return planAxes{[]int{c.Channel}, []int{c.Pseudo}, []int{c.Bank}, len(c.Rows)}
		},
		span:     oneRecordSpan[VariabilityConfig],
		complete: oneRecordPerCell[VariabilityRecord],
		measure:  (*VariabilityConfig).measure,
	})
	rowPressBERKind = defineKind(&kindDef[RowPressBERConfig, RowPressBERRecord]{
		kind: KindRowPressBER,
		fill: (*RowPressBERConfig).fill,
		axes: func(c *RowPressBERConfig) planAxes {
			return planAxes{c.Channels, []int{c.Pseudo}, []int{c.Bank}, len(c.TAggONs)}
		},
		span:     oneRecordSpan[RowPressBERConfig],
		complete: oneRecordPerCell[RowPressBERRecord],
		measure:  (*RowPressBERConfig).measure,
	})
	rowPressHCKind = defineKind(&kindDef[RowPressHCConfig, RowPressHCRecord]{
		kind: KindRowPressHC,
		fill: (*RowPressHCConfig).fill,
		axes: func(c *RowPressHCConfig) planAxes {
			return planAxes{c.Channels, []int{c.Pseudo}, []int{c.Bank}, len(c.Rows) * len(c.TAggONs)}
		},
		span:     oneRecordSpan[RowPressHCConfig],
		complete: oneRecordPerCell[RowPressHCRecord],
		measure:  (*RowPressHCConfig).measure,
	})
	bypassKind = defineKind(&kindDef[BypassConfig, BypassRecord]{
		kind: KindBypass,
		fill: (*BypassConfig).fill,
		axes: func(c *BypassConfig) planAxes {
			return planAxes{[]int{c.Channel}, []int{c.Pseudo}, []int{c.Bank},
				len(c.DummyCounts) * len(c.AggActs) * len(c.Victims)}
		},
		span:     oneRecordSpan[BypassConfig],
		complete: oneRecordPerCell[BypassRecord],
		measure:  (*BypassConfig).measure,
	})
	// Aging composes two BER sweeps and streams its joined records only
	// at the end, so it has no plan, no resume span and no per-cell
	// measurement of its own.
	agingKind = defineKind(&kindDef[AgingConfig, AgingRecord]{
		kind: KindAging,
		fill: (*AgingConfig).fill,
		complete: func(SweepHeader, []AgingRecord) error {
			return errors.New("core: aging sweeps stream their records only on completion; a file alone cannot prove the run finished")
		},
		run: RunAgingContext,
	})
	vrdKind = defineKind(&kindDef[VRDConfig, VRDRecord]{
		kind:     KindVRD,
		fill:     (*VRDConfig).fill,
		axes:     func(c *VRDConfig) planAxes { return planAxes{c.Channels, c.Pseudos, c.Banks, len(c.Rows)} },
		span:     oneRecordSpan[VRDConfig],
		complete: oneRecordPerCell[VRDRecord],
		measure:  (*VRDConfig).measure,
	})
	colDisturbKind = defineKind(&kindDef[ColDisturbConfig, ColDisturbRecord]{
		kind: KindColDisturb,
		fill: (*ColDisturbConfig).fill,
		axes: func(c *ColDisturbConfig) planAxes {
			return planAxes{[]int{c.Channel}, []int{c.Pseudo}, []int{c.Bank}, len(c.AggRows)}
		},
		// One record per (distance, stripe) probe of the cell's aggressor.
		span: func(c *ColDisturbConfig) spanFunc { return fixedSpan(len(c.Distances) * len(c.Stripes)) },
		complete: equalRuns(func(r *ColDisturbRecord) [5]int {
			return [5]int{r.Chip, r.Channel, r.Pseudo, r.Bank, r.Row}
		}),
		measure: (*ColDisturbConfig).measure,
	})
)

// Descriptor is one registered experiment kind, as LookupKind returns it:
// what a caller that knows a kind only by name - a service decoding a
// sweep spec - needs to build and run its sweep. FingerprintFor, PlanSize,
// DecodeRecords, VerifyComplete and the columnar codec dispatch through
// the same descriptors.
type Descriptor interface {
	// Kind names the experiment.
	Kind() Kind
	// NewConfig returns a pointer to a fresh zero config of the kind's
	// type (*BERConfig for KindBER, and so on), ready to decode into.
	NewConfig() any
	// Run executes the sweep exactly as the kind's Run*Context entry
	// point does. cfg is the kind's config, by value or by pointer; the
	// records are the kind's typed slice.
	Run(ctx context.Context, fleet []*TestChip, cfg any, opts ...RunOption) (any, error)

	fingerprint(fleet []*TestChip, cfg any) (string, error)
	planSize(fleet []*TestChip, cfg any) (int, error)
	decode(br *bufio.Reader) (any, error)
	verify(h SweepHeader, records any) error
	columns() (reflect.Type, []colSpec)
}

// LookupKind returns the registered descriptor of an experiment kind.
func LookupKind(kind Kind) (Descriptor, error) {
	for _, d := range registry {
		if d.Kind() == kind {
			return d, nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment kind %q", kind)
}

// Kinds lists every experiment kind, in registry order.
func Kinds() []Kind {
	kinds := make([]Kind, len(registry))
	for i, d := range registry {
		kinds[i] = d.Kind()
	}
	return kinds
}

// planAxes are the coordinates newPlan enumerates: chip x channel x
// pseudo x bank x point.
type planAxes struct {
	channels, pseudos, banks []int
	points                   int
}

// cells is the size of the plan the axes lay out over a fleet of chips.
func (a planAxes) cells(chips int) int {
	return chips * len(a.channels) * len(a.pseudos) * len(a.banks) * a.points
}

// kindDef is the typed definition of one experiment kind: C is its config
// type, R its record type.
type kindDef[C, R any] struct {
	kind Kind
	// fill resolves the config's defaults against the fleet's geometry
	// and timing, on the copy a sweep runs and fingerprints.
	fill func(c *C, g hbm.Geometry, t hbm.Timing)
	// axes lays out the plan of a filled config; nil when the kind has no
	// single shardable plan.
	axes func(c *C) planAxes
	// span maps checkpoint records back to plan cells on resume.
	span func(c *C) spanFunc
	// complete checks that a decoded stream covers its header's plan.
	complete func(h SweepHeader, recs []R) error
	// measure runs one plan cell of a filled config.
	measure func(c *C, ctx context.Context, env *cellEnv, cell Cell) ([]R, error)
	// run replaces runKind for a kind composed of other sweeps.
	run func(ctx context.Context, fleet []*TestChip, cfg C, opts ...RunOption) ([]R, error)

	// record is R, and schema its columnar layout, set by defineKind.
	record reflect.Type
	schema []colSpec
}

// defineKind completes a kind definition with its record type's columnar
// schema.
func defineKind[C, R any](d *kindDef[C, R]) *kindDef[C, R] {
	d.record = reflect.TypeOf((*R)(nil)).Elem()
	d.schema = schemaOf(d.record)
	return d
}

func (d *kindDef[C, R]) Kind() Kind { return d.kind }

func (d *kindDef[C, R]) NewConfig() any { return new(C) }

// config unwraps cfg as the kind's config type, given by value or by
// pointer.
func (d *kindDef[C, R]) config(cfg any) (C, error) {
	switch c := cfg.(type) {
	case C:
		return c, nil
	case *C:
		if c != nil {
			return *c, nil
		}
	}
	var zero C
	return zero, fmt.Errorf("core: kind %s wants %s, got %T", d.kind, reflect.TypeOf(zero).Name(), cfg)
}

// filled returns a copy of cfg with its defaults resolved for the fleet,
// exactly as the runner resolves them.
func (d *kindDef[C, R]) filled(fleet []*TestChip, cfg any) (C, error) {
	c, err := d.config(cfg)
	if err == nil {
		d.fill(&c, fleetGeometry(fleet), fleetTiming(fleet))
	}
	return c, err
}

func (d *kindDef[C, R]) Run(ctx context.Context, fleet []*TestChip, cfg any, opts ...RunOption) (any, error) {
	c, err := d.config(cfg)
	if err != nil {
		return nil, err
	}
	if d.run != nil {
		return d.run(ctx, fleet, c, opts...)
	}
	return runKind(ctx, d, fleet, c, opts...)
}

func (d *kindDef[C, R]) fingerprint(fleet []*TestChip, cfg any) (string, error) {
	c, err := d.filled(fleet, cfg)
	if err != nil {
		return "", err
	}
	return fingerprintSweep(d.kind, fleet, c)
}

func (d *kindDef[C, R]) planSize(fleet []*TestChip, cfg any) (int, error) {
	if d.axes == nil {
		return 0, fmt.Errorf("core: %s sweeps compose inner sweeps and have no single shardable plan", d.kind)
	}
	c, err := d.filled(fleet, cfg)
	if err != nil {
		return 0, err
	}
	return d.axes(&c).cells(len(fleet)), nil
}

func (d *kindDef[C, R]) decode(br *bufio.Reader) (any, error) {
	recs, err := decodeAll[R](br)
	if err != nil {
		return nil, err
	}
	return recs, nil
}

func (d *kindDef[C, R]) verify(h SweepHeader, records any) error {
	recs, ok := records.([]R)
	if !ok {
		return fmt.Errorf("core: unsupported record slice %T for kind %s", records, d.kind)
	}
	return d.complete(h, recs)
}

func (d *kindDef[C, R]) columns() (reflect.Type, []colSpec) { return d.record, d.schema }

// runKind executes one sweep of a plan-shaped kind: resolve the config's
// defaults, lay out the plan, fingerprint it (narrowing to a shard and
// warm-starting from a checkpoint when asked), and run every cell's
// measurement on the sweep engine.
func runKind[C, R any](ctx context.Context, d *kindDef[C, R], fleet []*TestChip, cfg C, opts ...RunOption) ([]R, error) {
	d.fill(&cfg, fleetGeometry(fleet), fleetTiming(fleet))
	a := d.axes(&cfg)
	p := newPlan(fleet, a.channels, a.pseudos, a.banks, a.points)
	o := applyOpts(opts)
	p, st, err := prepareSweep[R](d.kind, fleet, cfg, p, o, d.span(&cfg))
	if err != nil {
		return nil, err
	}
	return runSweep(ctx, p, o, st, func(ctx context.Context, env *cellEnv, c Cell) ([]R, error) {
		return d.measure(&cfg, ctx, env, c)
	})
}
