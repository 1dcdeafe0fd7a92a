package core

import (
	"context"
	"fmt"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// HCFirstConfig parameterizes the HCfirst experiments behind Figs 5 and 7
// (Table 2: 3072 rows, 3 banks, 2 pseudo channels, 8 channels at paper
// scale).
type HCFirstConfig struct {
	Channels []int // default {0..7}
	Pseudos  []int // default {0}
	Banks    []int // default {0}
	// Rows are physical victim rows per bank (default SampleRows(24)).
	Rows     []int
	Patterns []pattern.Pattern
	// MinHammer and MaxHammer bound the search (defaults 1000 and 300K).
	MinHammer, MaxHammer int
	// Reps takes the minimum HCfirst across repetitions (default 5, §3.1).
	Reps int
	// TOn is the aggressor row-on time (default tRAS).
	TOn hbm.TimePS
}

func (c *HCFirstConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Channels) == 0 {
		c.Channels = Channels(g.Channels)
	}
	if len(c.Pseudos) == 0 {
		c.Pseudos = []int{0}
	}
	if len(c.Banks) == 0 {
		c.Banks = []int{0}
	}
	if len(c.Rows) == 0 {
		c.Rows = SampleRowsIn(g, 24)
	}
	if len(c.Patterns) == 0 {
		c.Patterns = pattern.All()
	}
	if c.MinHammer == 0 {
		c.MinHammer = 1000
	}
	if c.MaxHammer == 0 {
		c.MaxHammer = 300 * 1024
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
}

// HCFirstRecord is one (row, pattern) HCfirst measurement. WCDP marks the
// derived worst-case record: the pattern with the smallest HCfirst (ties:
// the larger BER at 256K, measured on demand).
type HCFirstRecord struct {
	Chip, Channel, Pseudo, Bank, Row int
	Pattern                          pattern.Pattern
	WCDP                             bool
	// HCFirst is the minimum hammer count that induced the first bitflip
	// (minimum across repetitions). Valid only when Found.
	HCFirst int
	// Found is false when no bitflip occurred up to MaxHammer.
	Found bool
}

// RunHCFirst executes the HCfirst experiment across the fleet.
func RunHCFirst(fleet []*TestChip, cfg HCFirstConfig) ([]HCFirstRecord, error) {
	return RunHCFirstContext(context.Background(), fleet, cfg)
}

// RunHCFirstContext is RunHCFirst with cancellation and execution options.
// Records are in plan order - (chip, channel, pseudo, bank, row), each row
// contributing its patterns in config order with the derived WCDP record
// last - deterministically, independent of worker count.
func RunHCFirstContext(ctx context.Context, fleet []*TestChip, cfg HCFirstConfig, opts ...RunOption) ([]HCFirstRecord, error) {
	return runKind(ctx, hcFirstKind, fleet, cfg, opts...)
}

// measure runs one plan cell: every pattern on one victim row, then the
// derived WCDP record when any pattern flipped.
func (c *HCFirstConfig) measure(_ context.Context, env *cellEnv, cell Cell) ([]HCFirstRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	row := c.Rows[cell.Point]
	recs := make([]HCFirstRecord, 0, len(c.Patterns)+1)
	bestIdx := -1
	for _, p := range c.Patterns {
		hc, found, err := ref.hcSearchMin(row, p, 1, c.MinHammer, c.MaxHammer, c.Reps, c.TOn)
		if err != nil {
			return nil, fmt.Errorf("row %d pattern %s: %w", row, p, err)
		}
		recs = append(recs, HCFirstRecord{
			Chip: ref.tc.Index, Channel: cell.Channel, Pseudo: ref.pc, Bank: ref.bnk, Row: row,
			Pattern: p, HCFirst: hc, Found: found,
		})
		if found && (bestIdx < 0 || hc < recs[bestIdx].HCFirst) {
			bestIdx = len(recs) - 1
		}
	}
	if bestIdx >= 0 {
		w := recs[bestIdx]
		w.WCDP = true
		recs = append(recs, w)
	}
	return recs, nil
}

// FilterHCFirst returns records matching the predicate.
func FilterHCFirst(recs []HCFirstRecord, keep func(HCFirstRecord) bool) []HCFirstRecord {
	var out []HCFirstRecord
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// HCValues extracts HCFirst (as float64) from found records.
func HCValues(recs []HCFirstRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Found {
			out = append(out, float64(r.HCFirst))
		}
	}
	return out
}
