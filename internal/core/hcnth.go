package core

import (
	"context"
	"fmt"
	"sort"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/stats"
)

// HCNthConfig parameterizes the §5 experiment: the hammer counts needed to
// induce the first 10 bitflips in a row (Figs 11 and 12). The paper tests
// 32 rows from each of the beginning, middle, and end of one bank in the
// two channels with the smallest HCfirst of every chip.
type HCNthConfig struct {
	Channels []int // default {0, 1}
	Pseudo   int
	Bank     int
	// Rows are physical victim rows (default RegionRows(8)).
	Rows     []int
	Patterns []pattern.Pattern
	// MaxFlips is how many bitflips to chase (default 10).
	MaxFlips int
	// MinHammer/MaxHammer bound the searches.
	MinHammer, MaxHammer int
	TOn                  hbm.TimePS
}

func (c *HCNthConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Channels) == 0 {
		c.Channels = []int{0, 1}
	}
	if len(c.Rows) == 0 {
		c.Rows = RegionRowsIn(g, 8)
	}
	if len(c.Patterns) == 0 {
		c.Patterns = pattern.All()
	}
	if c.MaxFlips == 0 {
		c.MaxFlips = 10
	}
	if c.MinHammer == 0 {
		c.MinHammer = 1000
	}
	if c.MaxHammer == 0 {
		c.MaxHammer = 1024 * 1024
	}
}

// HCNthRecord holds the hammer counts HC[k-1] inducing the k-th bitflip of
// one row under one pattern. Found is false if even MaxHammer could not
// produce MaxFlips bitflips.
type HCNthRecord struct {
	Chip, Channel, Row int
	Pattern            pattern.Pattern
	HC                 []int
	Found              bool
}

// Normalized returns HC[k]/HC[0] for each k (Fig 11's y-axis).
func (r HCNthRecord) Normalized() []float64 {
	if len(r.HC) == 0 || r.HC[0] == 0 {
		return nil
	}
	out := make([]float64, len(r.HC))
	for i, hc := range r.HC {
		out[i] = float64(hc) / float64(r.HC[0])
	}
	return out
}

// Additional returns HC[last]-HC[0], the additional hammers over HCfirst
// to the 10th bitflip (Fig 12's y-axis).
func (r HCNthRecord) Additional() int {
	if len(r.HC) == 0 {
		return 0
	}
	return r.HC[len(r.HC)-1] - r.HC[0]
}

// RunHCNth measures the hammer counts for the first MaxFlips bitflips.
// Searches for successive k reuse the k-1 result as the lower bound
// (HC_k is monotonically non-decreasing in k).
func RunHCNth(fleet []*TestChip, cfg HCNthConfig) ([]HCNthRecord, error) {
	return RunHCNthContext(context.Background(), fleet, cfg)
}

// RunHCNthContext is RunHCNth with cancellation and execution options.
// Records are in plan order: (chip, channel, row, pattern).
func RunHCNthContext(ctx context.Context, fleet []*TestChip, cfg HCNthConfig, opts ...RunOption) ([]HCNthRecord, error) {
	return runKind(ctx, hcNthKind, fleet, cfg, opts...)
}

// measure runs one plan cell: the first MaxFlips flips of one (row,
// pattern) pair.
func (c *HCNthConfig) measure(_ context.Context, env *cellEnv, cell Cell) ([]HCNthRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	row := c.Rows[cell.Point/len(c.Patterns)]
	p := c.Patterns[cell.Point%len(c.Patterns)]
	rec := HCNthRecord{Chip: ref.tc.Index, Channel: cell.Channel, Row: row, Pattern: p}
	lo := c.MinHammer
	for k := 1; k <= c.MaxFlips; k++ {
		hc, found, err := ref.hcSearch(row, p, k, lo, c.MaxHammer, c.TOn)
		if err != nil {
			return nil, fmt.Errorf("row %d pattern %s flip %d: %w", row, p, k, err)
		}
		if !found {
			return []HCNthRecord{rec}, nil
		}
		rec.HC = append(rec.HC, hc)
		lo = hc
	}
	rec.Found = true
	return []HCNthRecord{rec}, nil
}

// Fig12Stats computes, per chip, the Pearson correlation between HCfirst
// and the additional hammers to the 10th bitflip, plus a quadratic trend
// fit (the paper's orange curve).
type Fig12Stats struct {
	Chip    int
	Pearson float64
	// PolyCoef are the quadratic least-squares coefficients (c0+c1*x+c2*x^2).
	PolyCoef []float64
	N        int
}

// ComputeFig12 derives the Fig 12 statistics from HCNth records.
func ComputeFig12(recs []HCNthRecord) ([]Fig12Stats, error) {
	byChip := map[int][][2]float64{}
	for _, r := range recs {
		if !r.Found {
			continue
		}
		byChip[r.Chip] = append(byChip[r.Chip], [2]float64{float64(r.HC[0]), float64(r.Additional())})
	}
	chips := make([]int, 0, len(byChip))
	for c := range byChip {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	out := make([]Fig12Stats, 0, len(chips))
	for _, c := range chips {
		pts := byChip[c]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		r, err := stats.Pearson(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("core: fig12 chip %d: %w", c, err)
		}
		coef, err := stats.PolyFit(xs, ys, 2)
		if err != nil {
			coef = nil // degenerate sample; correlation still reported
		}
		out = append(out, Fig12Stats{Chip: c, Pearson: r, PolyCoef: coef, N: len(pts)})
	}
	return out, nil
}
