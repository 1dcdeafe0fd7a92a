package core

import (
	"context"
	"fmt"

	"hbmrd/internal/hbm"
)

// ColDisturbConfig parameterizes the ColumnDisturb experiment
// (arXiv 2510.14750): read disturbance carried by the bitlines instead of
// the wordlines. Keeping one aggressor row open while streaming column
// reads through it disturbs rows many positions away in the same
// subarray - no repeated activations involved. The sweep opens each
// aggressor row for a long column-read burst and measures a victim row
// at each configured distance, for each column-stripe data pattern
// written into the aggressor (the effect is strongest on bitlines whose
// aggressor cell stores the opposite value, so stripes shape the flips
// along the row).
//
// All (distance, stripe) probes of one aggressor row run inside a single
// plan cell: they share the aggressor's device state (restore epochs),
// so splitting them across shards would change flip outcomes. One cell
// per aggressor row keeps sharded runs byte-identical to local ones.
type ColDisturbConfig struct {
	Channel int
	Pseudo  int
	Bank    int
	// AggRows lists the aggressor physical rows (default SampleRowsIn(g, 4)).
	AggRows []int
	// Distances are the signed victim offsets from the aggressor row
	// (default {1, 2, 3, 4, 6, 8}).
	Distances []int
	// Stripes are the column-stripe widths, in columns, of the data
	// pattern written into the aggressor row (default {1, 2, 8}).
	Stripes []int
	// Reads is the column-read count of the flip measurement (default 10000).
	Reads int
	// MinReads/MaxReads bound the first-disturb threshold search
	// (defaults 1000 and 1<<20).
	MinReads, MaxReads int
}

func (c *ColDisturbConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Distances) == 0 {
		c.Distances = []int{1, 2, 3, 4, 6, 8}
	}
	if len(c.AggRows) == 0 {
		// SampleRowsIn only guarantees two neighbours of edge clearance;
		// clamp the samples so every configured distance has an in-range
		// victim.
		maxd := 0
		for _, d := range c.Distances {
			if d < 0 {
				d = -d
			}
			if d > maxd {
				maxd = d
			}
		}
		rows := SampleRowsIn(g, 4)
		for i, r := range rows {
			if r < maxd {
				r = maxd
			}
			if r > g.Rows-1-maxd {
				r = g.Rows - 1 - maxd
			}
			rows[i] = r
		}
		c.AggRows = dedupSorted(rows)
	}
	if len(c.Stripes) == 0 {
		c.Stripes = []int{1, 2, 8}
	}
	if c.Reads == 0 {
		c.Reads = 10_000
	}
	if c.MinReads == 0 {
		c.MinReads = 1_000
	}
	if c.MaxReads == 0 {
		c.MaxReads = 1 << 20
	}
}

// ColDisturbRecord reports one (aggressor row, distance, stripe) probe:
// the victim's flips after the configured read burst, their per-column
// layout, and the smallest read count that disturbs at all.
type ColDisturbRecord struct {
	Chip, Channel, Pseudo, Bank int
	// Row is the aggressor physical row; the victim is Row + Distance.
	Row      int
	Distance int
	// Stripe is the aggressor's column-stripe width in columns.
	Stripe int
	// Reads is the read count Flips was measured at.
	Reads int
	Flips int
	// ColFlips counts the victim's flips per column at Reads.
	ColFlips []int
	// FirstDisturb is the smallest read count inducing at least one flip
	// (within ~1% tolerance); Found is false when even MaxReads does not.
	FirstDisturb int
	Found        bool
}

// RunColDisturb measures column-read disturbance at each configured
// distance and stripe pattern around every aggressor row.
func RunColDisturb(fleet []*TestChip, cfg ColDisturbConfig) ([]ColDisturbRecord, error) {
	return RunColDisturbContext(context.Background(), fleet, cfg)
}

// RunColDisturbContext is RunColDisturb with cancellation and execution
// options. Records are in plan order: (chip, aggressor row, distance,
// stripe).
func RunColDisturbContext(ctx context.Context, fleet []*TestChip, cfg ColDisturbConfig, opts ...RunOption) ([]ColDisturbRecord, error) {
	return runKind(ctx, colDisturbKind, fleet, cfg, opts...)
}

// measure runs one plan cell: every (distance, stripe) probe around one
// aggressor row.
func (c *ColDisturbConfig) measure(ctx context.Context, env *cellEnv, cell Cell) ([]ColDisturbRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	agg := c.AggRows[cell.Point]
	cb := ref.geom.ColBytes
	stripeBuf := make([]byte, ref.geom.RowBytes)
	mask := make([]byte, ref.geom.RowBytes)
	recs := make([]ColDisturbRecord, 0, len(c.Distances)*len(c.Stripes))
	for _, dist := range c.Distances {
		victim := agg + dist
		if dist == 0 || victim < 0 || victim >= ref.geom.Rows {
			return nil, fmt.Errorf("core: aggressor %d has no victim at distance %d", agg, dist)
		}
		for _, stripe := range c.Stripes {
			if stripe <= 0 {
				return nil, fmt.Errorf("core: stripe width %d out of range", stripe)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sb := stripe * cb
			for i := range stripeBuf {
				if (i/sb)%2 == 0 {
					stripeBuf[i] = 0xFF
				} else {
					stripeBuf[i] = 0x00
				}
			}
			probe := func(reads int, mask []byte) (int, error) {
				if err := ref.ch.FillRow(ref.pc, ref.bnk, ref.logical(victim), 0xFF); err != nil {
					return 0, err
				}
				if err := ref.ch.WriteRow(ref.pc, ref.bnk, ref.logical(agg), stripeBuf); err != nil {
					return 0, err
				}
				if err := ref.ch.ColumnRead(ref.pc, ref.bnk, ref.logical(agg), reads); err != nil {
					return 0, err
				}
				return ref.readFlips(victim, 0xFF, mask)
			}

			for i := range mask {
				mask[i] = 0
			}
			flips, err := probe(c.Reads, mask)
			if err != nil {
				return nil, err
			}
			rec := ColDisturbRecord{
				Chip: env.tc.Index, Channel: cell.Channel, Pseudo: cell.Pseudo, Bank: cell.Bank,
				Row: agg, Distance: dist, Stripe: stripe, Reads: c.Reads, Flips: flips,
				ColFlips: columnCounts(mask, cb),
			}

			// First-disturb threshold: same geometric bisection and
			// termination rules as hcSearch, with reads as the dose.
			lo, hi := c.MinReads, c.MaxReads
			if lo < 1 {
				lo = 1
			}
			n, err := probe(hi, nil)
			if err != nil {
				return nil, err
			}
			if n >= 1 {
				n, err = probe(lo, nil)
				if err != nil {
					return nil, err
				}
				if n >= 1 {
					hi = lo
				} else {
					for hi-lo > 1 && float64(hi)/float64(lo) > 1.01 {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						mid := intSqrt(lo, hi)
						n, err = probe(mid, nil)
						if err != nil {
							return nil, err
						}
						if n >= 1 {
							hi = mid
						} else {
							lo = mid
						}
					}
				}
				rec.FirstDisturb, rec.Found = hi, true
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// columnCounts folds a row-sized flip mask into per-column flip counts.
func columnCounts(mask []byte, colBytes int) []int {
	counts := make([]int, len(mask)/colBytes)
	for i, b := range mask {
		for ; b != 0; b &= b - 1 {
			counts[i/colBytes]++
		}
	}
	return counts
}
