package core

import (
	"context"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// VariabilityConfig parameterizes the Fig 13 experiment: how much a row's
// HCfirst moves across repeated measurements (the paper runs 50 iterations
// on 768 rows of channel 0 per chip with Rowstripe0).
type VariabilityConfig struct {
	Channel int
	Pseudo  int
	Bank    int
	Rows    []int // default SampleRows(16)
	Pattern pattern.Pattern
	// Iterations is the number of repeated HCfirst measurements (default 50).
	Iterations           int
	MinHammer, MaxHammer int
	TOn                  hbm.TimePS
}

func (c *VariabilityConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Rows) == 0 {
		c.Rows = SampleRowsIn(g, 16)
	}
	if c.Pattern == 0 {
		c.Pattern = pattern.Rowstripe0
	}
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.MinHammer == 0 {
		c.MinHammer = 1000
	}
	if c.MaxHammer == 0 {
		c.MaxHammer = 300 * 1024
	}
}

// VariabilityRecord reports one row's HCfirst range across iterations.
type VariabilityRecord struct {
	Chip, Row      int
	MinHC, MaxHC   int
	Iterations     int
	MeasuredRatios bool // false when the row never flipped
}

// Ratio returns MaxHC/MinHC, the Fig 13 metric.
func (r VariabilityRecord) Ratio() float64 {
	if r.MinHC == 0 {
		return 0
	}
	return float64(r.MaxHC) / float64(r.MinHC)
}

// RunVariability measures HCfirst Iterations times per row and records the
// extremes.
func RunVariability(fleet []*TestChip, cfg VariabilityConfig) ([]VariabilityRecord, error) {
	return RunVariabilityContext(context.Background(), fleet, cfg)
}

// RunVariabilityContext is RunVariability with cancellation and execution
// options. Records are in plan order: (chip, row).
func RunVariabilityContext(ctx context.Context, fleet []*TestChip, cfg VariabilityConfig, opts ...RunOption) ([]VariabilityRecord, error) {
	return runKind(ctx, variabilityKind, fleet, cfg, opts...)
}

// measure runs one plan cell: every iteration on one row.
func (c *VariabilityConfig) measure(ctx context.Context, env *cellEnv, cell Cell) ([]VariabilityRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	row := c.Rows[cell.Point]
	rec := VariabilityRecord{Chip: env.tc.Index, Row: row, Iterations: c.Iterations}
	for it := 0; it < c.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hc, found, err := ref.hcSearch(row, c.Pattern, 1, c.MinHammer, c.MaxHammer, c.TOn)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		if !rec.MeasuredRatios || hc < rec.MinHC {
			rec.MinHC = hc
		}
		if hc > rec.MaxHC {
			rec.MaxHC = hc
		}
		rec.MeasuredRatios = true
	}
	return []VariabilityRecord{rec}, nil
}
