package core

import (
	"context"
	"fmt"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
)

// BypassConfig parameterizes the Fig 16 experiment: the specialized access
// pattern that defeats the undocumented TRR mechanism. Per tREFI the
// pattern spends the full 78-ACT budget: first the dummy rows, then the
// double-sided aggressor pair; a REF closes every interval. The paper
// repeats the pattern for two refresh windows (8205*2 intervals) per
// victim and sweeps the number of dummy rows (x-axis) and the aggressor
// activation count (boxes).
type BypassConfig struct {
	Channel int
	Pseudo  int
	Bank    int
	// Victims are physical victim rows (default SampleRows(6)).
	Victims []int
	// DummyCounts sweeps the number of dummy rows (default 1..10).
	DummyCounts []int
	// AggActs sweeps per-aggressor activations per tREFI (default
	// 18..34 step 4; must keep 2*AggAct <= budget).
	AggActs []int
	// Windows is the number of tREFI intervals to run (default
	// 2*tREFW/tREFI = 16410, the paper's 8205*2).
	Windows int
	// Pattern selects the victim data pattern (default Checkered0).
	Pattern pattern.Pattern
}

func (c *BypassConfig) fill(g hbm.Geometry, t hbm.Timing) {
	if len(c.Victims) == 0 {
		c.Victims = SampleRowsIn(g, 6)
	}
	if len(c.DummyCounts) == 0 {
		c.DummyCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if len(c.AggActs) == 0 {
		c.AggActs = []int{18, 22, 26, 30, 34}
	}
	if c.Windows == 0 {
		c.Windows = 2 * int(t.TREFW/t.TREFI)
	}
	if c.Pattern == 0 {
		c.Pattern = pattern.Checkered0
	}
}

// BypassRecord is the outcome of one (dummies, aggAct, victim) run.
type BypassRecord struct {
	Chip, Row        int
	Dummies, AggActs int
	BERPercent       float64
}

// RunBypass executes the TRR bypass sweep on each chip of the fleet
// (the paper runs it on Chip 0). Chips run in parallel; the sweep on each
// chip-channel is serialized to keep device access single-threaded.
func RunBypass(fleet []*TestChip, cfg BypassConfig) ([]BypassRecord, error) {
	return RunBypassContext(context.Background(), fleet, cfg)
}

// RunBypassContext is RunBypass with cancellation and execution options.
// Records are in plan order: (chip, dummies, aggActs, victim). Defaults
// derive from the first chip's geometry and timing; mixed fleets should
// set Victims and Windows explicitly.
func RunBypassContext(ctx context.Context, fleet []*TestChip, cfg BypassConfig, opts ...RunOption) ([]BypassRecord, error) {
	return runKind(ctx, bypassKind, fleet, cfg, opts...)
}

// measure runs one plan cell: one (dummies, aggActs, victim) triple.
func (c *BypassConfig) measure(ctx context.Context, env *cellEnv, cell Cell) ([]BypassRecord, error) {
	pt := cell.Point
	victim := c.Victims[pt%len(c.Victims)]
	pt /= len(c.Victims)
	aggActs := c.AggActs[pt%len(c.AggActs)]
	dummies := c.DummyCounts[pt/len(c.AggActs)]

	budget := env.tc.Chip.Timing().ActBudgetPerREFI()
	if 2*aggActs > budget {
		return nil, fmt.Errorf("core: aggressor activations %d exceed the %d-ACT budget", aggActs, budget)
	}
	ber, err := runBypassPattern(ctx, env, *c, victim, dummies, aggActs, budget)
	if err != nil {
		return nil, err
	}
	return []BypassRecord{{
		Chip: env.tc.Index, Row: victim, Dummies: dummies, AggActs: aggActs,
		BERPercent: ber,
	}}, nil
}

func runBypassPattern(ctx context.Context, env *cellEnv, cfg BypassConfig, victim, dummies, aggActs, budget int) (float64, error) {
	ch := env.ch
	ref := env.bank(cfg.Pseudo, cfg.Bank)
	if err := ref.initPattern(victim, cfg.Pattern); err != nil {
		return 0, err
	}

	// Dummy rows sit far from the victim, spaced apart so they do not
	// disturb each other or anything we measure.
	dummyBase := victim + 2000
	if dummyBase+4*dummies >= ref.geom.Rows {
		dummyBase = victim - 2000 - 4*dummies
	}
	if dummyBase < 0 {
		return 0, fmt.Errorf("core: no room for %d dummy rows near victim %d", dummies, victim)
	}

	// Per tREFI: dummies first (the paper's pattern), then the
	// double-sided pair, then REF.
	dummyActsTotal := budget - 2*aggActs
	rows := make([]int, 0, dummies+2)
	counts := make([]int, 0, dummies+2)
	for d := 0; d < dummies; d++ {
		rows = append(rows, ref.logical(dummyBase+4*d))
		counts = append(counts, dummyActsTotal/dummies)
	}
	rows = append(rows, ref.logical(victim-1), ref.logical(victim+1))
	counts = append(counts, aggActs, aggActs)

	// One cell spans up to 2*tREFW/tREFI intervals, so this loop is the
	// longest uninterruptible stretch of any experiment; poll ctx to keep
	// cancellation prompt.
	for w := 0; w < cfg.Windows; w++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if err := ch.HammerRows(cfg.Pseudo, cfg.Bank, rows, counts, 0); err != nil {
			return 0, err
		}
		if err := ch.Refresh(); err != nil {
			return 0, err
		}
	}

	flips, err := ref.readFlips(victim, cfg.Pattern.VictimByte(), nil)
	if err != nil {
		return 0, err
	}
	return float64(flips) / float64(ref.geom.RowBits()) * 100, nil
}
