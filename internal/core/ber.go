package core

import (
	"context"
	"fmt"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// BERConfig parameterizes a RowHammer BER experiment (the measurement
// behind Figs 4, 6, 8, 9, 10 and 17). Zero-valued fields take the
// defaults noted on each.
type BERConfig struct {
	// Channels, Pseudos and Banks select the tested components (Table 2:
	// the BER experiment tests 8 channels, 1 pseudo channel, 1 bank).
	Channels []int // default {0..7}
	Pseudos  []int // default {0}
	Banks    []int // default {0}
	// Rows are the physical victim rows per bank (default SampleRows(64)).
	Rows []int
	// Patterns to test (default all four of Table 1).
	Patterns []pattern.Pattern
	// HammerCount per aggressor (default 256K, the paper's BER and WCDP
	// reference count).
	HammerCount int
	// TOn is the aggressor row-on time (default minimum tRAS).
	TOn hbm.TimePS
	// Reps averages the BER across repetitions (default 5, §3.1).
	Reps int
	// CollectMasks retains the OR-ed flip mask per record (Fig 17).
	CollectMasks bool
}

func (c *BERConfig) fill(g hbm.Geometry, _ hbm.Timing) {
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
		c.Rows = SampleRowsIn(g, 64)
	}
	if len(c.Patterns) == 0 {
		c.Patterns = pattern.All()
	}
	if c.HammerCount == 0 {
		c.HammerCount = 256 * 1024
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
}

// BERRecord is one (row, pattern) BER measurement. WCDP marks the derived
// worst-case-data-pattern record of a row (§3.1: the pattern with the
// smallest HCfirst, ties broken by the largest BER at 256K; RunBER derives
// it from BER alone - the tie-break criterion - while RunHCFirst performs
// the full HCfirst-based selection).
type BERRecord struct {
	Chip, Channel, Pseudo, Bank, Row int
	Pattern                          pattern.Pattern
	WCDP                             bool
	// BERPercent is the mean percentage of the row's 8192 bits flipped,
	// across repetitions.
	BERPercent float64
	// Mask is the OR of the flip masks across repetitions (nil unless
	// CollectMasks).
	Mask []byte
}

// RunBER executes the BER experiment across the fleet, parallelized per
// channel on the shared sweep engine. Results are deterministic.
func RunBER(fleet []*TestChip, cfg BERConfig) ([]BERRecord, error) {
	return RunBERContext(context.Background(), fleet, cfg)
}

// RunBERContext is RunBER with cancellation and execution options. Records
// are in plan order - (chip, channel, pseudo, bank, row), each row
// contributing its patterns in config order with the derived WCDP record
// last - deterministically, independent of worker count.
func RunBERContext(ctx context.Context, fleet []*TestChip, cfg BERConfig, opts ...RunOption) ([]BERRecord, error) {
	return runKind(ctx, berKind, fleet, cfg, opts...)
}

// measure runs one plan cell: every pattern on one victim row, then the
// derived WCDP record.
func (c *BERConfig) measure(_ context.Context, env *cellEnv, cell Cell) ([]BERRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	row := c.Rows[cell.Point]
	recs := make([]BERRecord, 0, len(c.Patterns)+1)
	bestIdx, bestBER := -1, -1.0
	for _, p := range c.Patterns {
		var mask []byte
		if c.CollectMasks {
			mask = make([]byte, ref.geom.RowBytes)
		}
		total := 0
		for rep := 0; rep < c.Reps; rep++ {
			n, err := ref.hammerAndCount(row, p, c.HammerCount, c.TOn, mask)
			if err != nil {
				return nil, fmt.Errorf("row %d pattern %s: %w", row, p, err)
			}
			total += n
		}
		ber := float64(total) / float64(c.Reps) / float64(ref.geom.RowBits()) * 100
		recs = append(recs, BERRecord{
			Chip: ref.tc.Index, Channel: cell.Channel, Pseudo: ref.pc, Bank: ref.bnk, Row: row,
			Pattern: p, BERPercent: ber, Mask: mask,
		})
		if ber > bestBER {
			bestBER, bestIdx = ber, len(recs)-1
		}
	}
	if bestIdx >= 0 {
		w := recs[bestIdx]
		w.WCDP = true
		recs = append(recs, w)
	}
	return recs, nil
}

// FilterBER returns the records matching the predicate.
func FilterBER(recs []BERRecord, keep func(BERRecord) bool) []BERRecord {
	var out []BERRecord
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// BERValues extracts BERPercent from records.
func BERValues(recs []BERRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.BERPercent
	}
	return out
}
