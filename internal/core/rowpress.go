package core

import (
	"context"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/retention"
)

// StandardTAggONs returns the six aggressor-row-on times of Fig 14: tRAS
// (29 ns), 58 ns, 87 ns, 116 ns, tREFI (3.9 us) and 9*tREFI (35.1 us).
func StandardTAggONs() []hbm.TimePS {
	return []hbm.TimePS{29 * hbm.NS, 58 * hbm.NS, 87 * hbm.NS, 116 * hbm.NS,
		3_900 * hbm.NS, 35_100 * hbm.NS}
}

// Fig15TAggONs returns the four on-times of Fig 15, including the extreme
// 16 ms at which a single activation suffices.
func Fig15TAggONs() []hbm.TimePS {
	return []hbm.TimePS{29 * hbm.NS, 3_900 * hbm.NS, 35_100 * hbm.NS, 16 * hbm.MS}
}

// RowPressBERConfig parameterizes the Fig 14 sweep: BER at a fixed hammer
// count across increasing tAggON (paper: 150K hammers, Checkered0, the
// first/middle/last 128 rows of one bank, 8 channels).
type RowPressBERConfig struct {
	Channels []int // default {0..7}
	Pseudo   int
	Bank     int
	Rows     []int // default RegionRows(8)
	TAggONs  []hbm.TimePS
	// HammerCount per aggressor (default 150K, Fig 14).
	HammerCount int
	Pattern     pattern.Pattern // default Checkered0
	// FilterRetention subtracts retention failures for experiments longer
	// than the 32 ms refresh window, as §6 does (default true; set
	// KeepRetention to disable).
	KeepRetention bool
	// RetentionReps is the union depth of the retention mask (default 5).
	RetentionReps int
}

func (c *RowPressBERConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Channels) == 0 {
		c.Channels = Channels(g.Channels)
	}
	if len(c.Rows) == 0 {
		c.Rows = RegionRowsIn(g, 8)
	}
	if len(c.TAggONs) == 0 {
		c.TAggONs = StandardTAggONs()
	}
	if c.HammerCount == 0 {
		c.HammerCount = 150_000
	}
	if c.Pattern == 0 {
		c.Pattern = pattern.Checkered0
	}
	if c.RetentionReps == 0 {
		c.RetentionReps = 5
	}
}

// RowPressBERRecord is one (chip, channel, tAggON) aggregate: the mean BER
// across the tested rows, with retention failures removed, plus the
// retention BER itself (the paper reports 0%, 0.013%, 0.134% for the three
// super-32ms experiment durations).
type RowPressBERRecord struct {
	Chip, Channel       int
	TAggON              hbm.TimePS
	BERPercent          float64
	RetentionBERPercent float64
	Rows                int
}

// RunRowPressBER executes the Fig 14 sweep.
func RunRowPressBER(fleet []*TestChip, cfg RowPressBERConfig) ([]RowPressBERRecord, error) {
	return RunRowPressBERContext(context.Background(), fleet, cfg)
}

// RunRowPressBERContext is RunRowPressBER with cancellation and execution
// options. Records are in plan order: (chip, channel, tAggON).
func RunRowPressBERContext(ctx context.Context, fleet []*TestChip, cfg RowPressBERConfig, opts ...RunOption) ([]RowPressBERRecord, error) {
	return runKind(ctx, rowPressBERKind, fleet, cfg, opts...)
}

// measure runs one plan cell: every row at one tAggON, aggregated into
// one record.
func (c *RowPressBERConfig) measure(ctx context.Context, env *cellEnv, cell Cell) ([]RowPressBERRecord, error) {
	ref := env.bank(cell.Pseudo, cell.Bank)
	tOn := c.TAggONs[cell.Point]
	rec := RowPressBERRecord{Chip: ref.tc.Index, Channel: cell.Channel, TAggON: tOn, Rows: len(c.Rows)}

	// Experiment duration per row: 2*count activations of (tOn + tRP)-ish
	// each; beyond the 32 ms refresh window retention failures creep in
	// and must be measured and subtracted (§6).
	t := ref.tc.Chip.Timing()
	perAct := t.TRC
	if tOn+t.TRP > perAct {
		perAct = tOn + t.TRP
	}
	expDur := hbm.TimePS(2*c.HammerCount) * perAct
	needFilter := !c.KeepRetention && expDur > t.TREFW

	totalFlips, totalRetFlips := 0, 0
	mask := make([]byte, ref.geom.RowBytes)
	for _, row := range c.Rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range mask {
			mask[i] = 0
		}
		flips, err := ref.hammerAndCount(row, c.Pattern, c.HammerCount, tOn, mask)
		if err != nil {
			return nil, err
		}
		if needFilter {
			prof := &retention.Profiler{Chan: env.ch, PC: ref.pc, Bank: ref.bnk, Fill: c.Pattern.VictimByte()}
			retMask, err := prof.RetentionMask(ref.logical(row), expDur, c.RetentionReps)
			if err != nil {
				return nil, err
			}
			for i := range mask {
				both := mask[i] & retMask[i]
				flips -= popcountByte(both)
				totalRetFlips += popcountByte(retMask[i])
			}
		}
		totalFlips += flips
	}
	rowBits := float64(len(c.Rows) * ref.geom.RowBits())
	rec.BERPercent = float64(totalFlips) / rowBits * 100
	rec.RetentionBERPercent = float64(totalRetFlips) / rowBits * 100
	return []RowPressBERRecord{rec}, nil
}

func popcountByte(b byte) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}

// RowPressHCConfig parameterizes the Fig 15 sweep: HCfirst as tAggON
// grows (paper: 384 rows, 3 channels, 4 on-times).
type RowPressHCConfig struct {
	Channels []int // default {0, 1, 2}
	Pseudo   int
	Bank     int
	Rows     []int // default SampleRows(12)
	TAggONs  []hbm.TimePS
	// MaxHammer bounds the search at the smallest tAggON (default 300K).
	MaxHammer int
}

func (c *RowPressHCConfig) fill(g hbm.Geometry, _ hbm.Timing) {
	if len(c.Channels) == 0 {
		c.Channels = []int{0, 1, 2}
	}
	if len(c.Rows) == 0 {
		c.Rows = SampleRowsIn(g, 12)
	}
	if len(c.TAggONs) == 0 {
		c.TAggONs = Fig15TAggONs()
	}
	if c.MaxHammer == 0 {
		c.MaxHammer = 300 * 1024
	}
}

// RowPressHCRecord is one (row, tAggON) HCfirst measurement.
// WithinWindow reports whether inducing the first bitflip fits inside the
// 32 ms refresh window (the paper only plots rows that flip within the
// window at every tested tAggON).
type RowPressHCRecord struct {
	Chip, Channel, Row int
	TAggON             hbm.TimePS
	HCFirst            int
	Found              bool
	WithinWindow       bool
}

// RunRowPressHC executes the Fig 15 sweep.
func RunRowPressHC(fleet []*TestChip, cfg RowPressHCConfig) ([]RowPressHCRecord, error) {
	return RunRowPressHCContext(context.Background(), fleet, cfg)
}

// RunRowPressHCContext is RunRowPressHC with cancellation and execution
// options. Records are in plan order: (chip, channel, row, tAggON).
func RunRowPressHCContext(ctx context.Context, fleet []*TestChip, cfg RowPressHCConfig, opts ...RunOption) ([]RowPressHCRecord, error) {
	return runKind(ctx, rowPressHCKind, fleet, cfg, opts...)
}

// measure runs one plan cell: one (row, tAggON) pair.
func (c *RowPressHCConfig) measure(_ context.Context, env *cellEnv, cell Cell) ([]RowPressHCRecord, error) {
	row := c.Rows[cell.Point/len(c.TAggONs)]
	tOn := c.TAggONs[cell.Point%len(c.TAggONs)]
	ref := env.bank(cell.Pseudo, cell.Bank)
	t := env.tc.Chip.Timing()
	hc, found, err := ref.hcSearch(row, pattern.Checkered0, 1, 1, c.MaxHammer, tOn)
	if err != nil {
		return nil, err
	}
	// Window accounting uses the open time itself: the paper's extreme
	// 16 ms point is chosen so each aggressor activates exactly once
	// per tREFW (2 x 16 ms = the window).
	tOnEff := tOn
	if tOnEff < t.TRAS {
		tOnEff = t.TRAS
	}
	return []RowPressHCRecord{{
		Chip: env.tc.Index, Channel: cell.Channel, Row: row, TAggON: tOn,
		HCFirst: hc, Found: found,
		WithinWindow: found && hbm.TimePS(2*hc)*tOnEff <= t.TREFW,
	}}, nil
}
