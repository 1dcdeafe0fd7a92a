package core

import (
	"context"
	"math"
	"sort"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// VRDConfig parameterizes the Variable Read Disturbance experiment
// (arXiv 2502.13075): HCfirst is not a constant of a cell but a
// distribution over repeated trials, so a safe mitigation threshold must
// be picked from the distribution's tail, not a single measurement. The
// sweep repeats the HCfirst bisection Trials times per victim row and
// records the full per-row distribution.
//
// Trial-to-trial variation needs no extra knob: every hammer trial
// restores the victim row, which advances the device's restore epoch and
// reseeds the disturb model's TrialJitter multiplier for the next trial
// (see internal/disturb), so repeated measurements of one row walk a
// deterministic jitter sequence exactly as the engine's per-cell
// determinism contract requires.
type VRDConfig struct {
	Channels []int // default {0}
	Pseudos  []int // default {0}
	Banks    []int // default {0}
	Rows     []int // default SampleRowsIn(g, 8)
	Pattern  pattern.Pattern
	// Trials is the number of repeated HCfirst measurements per row
	// (default 10).
	Trials int
	// Percentile selects the summary quantile PHC reports, in percent
	// (default 90). Nearest-rank over the found trials.
	Percentile           float64
	MinHammer, MaxHammer int
	TOn                  hbm.TimePS
}

func (c *VRDConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Channels) == 0 {
		c.Channels = []int{0}
	}
	if len(c.Pseudos) == 0 {
		c.Pseudos = []int{0}
	}
	if len(c.Banks) == 0 {
		c.Banks = []int{0}
	}
	if len(c.Rows) == 0 {
		c.Rows = SampleRowsIn(g, 8)
	}
	if c.Pattern == 0 {
		c.Pattern = pattern.Rowstripe0
	}
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.Percentile == 0 {
		c.Percentile = 90
	}
	if c.MinHammer == 0 {
		c.MinHammer = 1000
	}
	if c.MaxHammer == 0 {
		c.MaxHammer = 300 * 1024
	}
}

// VRDRecord reports one row's HCfirst distribution across Trials repeated
// measurements. The summary fields (MinHC/MaxHC/MeanHC/PHC) cover only
// the trials where a first flip was found; HCs keeps every trial in
// order, with 0 marking a trial that never flipped.
type VRDRecord struct {
	Chip, Channel, Pseudo, Bank, Row int
	Pattern                          pattern.Pattern
	Trials                           int
	// Found is the number of trials with a measured HCfirst.
	Found        int
	MinHC, MaxHC int
	MeanHC       float64
	// PHC is the config's Percentile of the found trials (nearest rank).
	PHC int
	// HCs holds the raw per-trial HCfirst values in trial order (0 =
	// not found), always Trials long.
	HCs []int
}

// Ratio returns MaxHC/MinHC, the trial-to-trial spread of the row (0
// when no trial found a flip).
func (r VRDRecord) Ratio() float64 {
	if r.MinHC == 0 {
		return 0
	}
	return float64(r.MaxHC) / float64(r.MinHC)
}

// RunVRD measures the per-row HCfirst distribution across repeated
// trials.
func RunVRD(fleet []*TestChip, cfg VRDConfig) ([]VRDRecord, error) {
	return RunVRDContext(context.Background(), fleet, cfg)
}

// RunVRDContext is RunVRD with cancellation and execution options.
// Records are in plan order: (chip, channel, pseudo, bank, row).
func RunVRDContext(ctx context.Context, fleet []*TestChip, cfg VRDConfig, opts ...RunOption) ([]VRDRecord, error) {
	return runKind(ctx, vrdKind, fleet, cfg, opts...)
}

// measure runs one plan cell: every trial on one victim row.
func (c *VRDConfig) measure(ctx context.Context, env *cellEnv, cell Cell) ([]VRDRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	row := c.Rows[cell.Point]
	rec := VRDRecord{
		Chip: env.tc.Index, Channel: cell.Channel, Pseudo: cell.Pseudo, Bank: cell.Bank,
		Row: row, Pattern: c.Pattern, Trials: c.Trials,
		HCs: make([]int, c.Trials),
	}
	sum := 0
	for t := 0; t < c.Trials; t++ {
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
		rec.HCs[t] = hc
		if rec.Found == 0 || hc < rec.MinHC {
			rec.MinHC = hc
		}
		if hc > rec.MaxHC {
			rec.MaxHC = hc
		}
		rec.Found++
		sum += hc
	}
	if rec.Found > 0 {
		rec.MeanHC = float64(sum) / float64(rec.Found)
		found := make([]int, 0, rec.Found)
		for _, hc := range rec.HCs {
			if hc > 0 {
				found = append(found, hc)
			}
		}
		sort.Ints(found)
		rec.PHC = found[percentileRank(c.Percentile, len(found))]
	}
	return []VRDRecord{rec}, nil
}

// percentileRank converts a percentile (0..100] into a nearest-rank index
// for a sorted slice of n found values.
func percentileRank(p float64, n int) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
