package core

import (
	"context"
	"fmt"

	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/stats"
)

// AgingConfig parameterizes the Fig 10 experiment: the paper re-measures
// BER on Chips 2-5 after keeping them powered for 7 more months (3072
// rows, 3 channels, Checkered1).
type AgingConfig struct {
	// BER is the underlying measurement configuration; the pattern
	// defaults to Checkered1 and channels to {0,1,2}.
	BER BERConfig
	// AdditionalMonths is the powered-on time between the two
	// measurements (default 7).
	AdditionalMonths float64
}

// fill resolves the aging defaults and the inner BER sweep's, so the
// config is canonical before fingerprinting.
func (c *AgingConfig) fill(g hbm.Geometry, t hbm.Timing) {
	if c.AdditionalMonths == 0 {
		c.AdditionalMonths = 7
	}
	if len(c.BER.Patterns) == 0 {
		c.BER.Patterns = []pattern.Pattern{pattern.Checkered1}
	}
	if len(c.BER.Channels) == 0 {
		c.BER.Channels = []int{0, 1, 2}
	}
	c.BER.fill(g, t)
}

// AgingRecord pairs one row's BER before and after aging.
type AgingRecord struct {
	Chip, Channel, Row int
	OldBERPercent      float64
	NewBERPercent      float64
}

// RunAging measures BER, advances each chip's powered-on age, and measures
// again. The chips' ages are restored afterwards.
func RunAging(fleet []*TestChip, cfg AgingConfig) ([]AgingRecord, error) {
	return RunAgingContext(context.Background(), fleet, cfg)
}

// RunAgingContext is RunAging with cancellation and execution options: it
// composes two RunBERContext sweeps. A caller's sink sees one combined
// lifecycle - Start once with both sweeps' cell total, progress spanning
// both, and exactly the returned AgingRecords streamed at the end (the
// intermediate BER records of the two passes are not emitted, since the
// joined record only exists once both passes finish) - honoring the Sink
// contract that a stream mirrors the returned slice.
func RunAgingContext(ctx context.Context, fleet []*TestChip, cfg AgingConfig, opts ...RunOption) ([]AgingRecord, error) {
	cfg.fill(fleetGeometry(fleet), fleetTiming(fleet))

	o := applyOpts(opts)
	// Aging streams its joined records only once both passes finish, so a
	// truncated aging file holds no per-cell progress worth warm-starting.
	if o.resume != nil {
		return nil, fmt.Errorf("core: aging sweeps stream no resumable prefix; re-run from scratch")
	}
	// Joined records are emitted only once both inner sweeps finish, so no
	// cell range of a single plan maps to a slice of the output stream.
	if o.shard != nil {
		return nil, fmt.Errorf("core: aging sweeps compose two inner sweeps and cannot be sharded")
	}
	var innerOpts []RunOption
	if o.jobs > 0 {
		innerOpts = append(innerOpts, WithJobs(o.jobs))
	}
	var agg *agingSink
	if o.sink != nil {
		fp, err := fingerprintSweep(KindAging, fleet, cfg)
		if err != nil {
			return nil, err
		}
		perSweep := berKind.axes(&cfg.BER).cells(len(fleet))
		agg = &agingSink{inner: o.sink, total: 2 * perSweep}
		innerOpts = append(innerOpts, WithSink(agg))
		o.sink.Start(agg.total)
		// The combined stream carries the aging fingerprint; the inner BER
		// sweeps' headers are absorbed by the adapter below.
		if hs, ok := o.sink.(HeaderSink); ok {
			hs.Header(SweepHeader{Format: sweepFormat, Kind: string(KindAging), Fingerprint: fp,
				Cells: agg.total, Generation: CodeGeneration})
		}
	}
	finish := func(err error) {
		if agg != nil {
			agg.inner.Finish(err)
		}
	}

	before, err := RunBERContext(ctx, fleet, cfg.BER, innerOpts...)
	if err != nil {
		err = fmt.Errorf("core: aging baseline: %w", err)
		finish(err)
		return nil, err
	}
	if agg != nil {
		agg.offset = agg.total / 2
	}
	for _, tc := range fleet {
		m := tc.Chip.Model()
		m.SetAgeMonths(m.AgeMonths() + cfg.AdditionalMonths)
	}
	after, err := RunBERContext(ctx, fleet, cfg.BER, innerOpts...)
	for _, tc := range fleet {
		m := tc.Chip.Model()
		m.SetAgeMonths(m.AgeMonths() - cfg.AdditionalMonths)
	}
	if err != nil {
		err = fmt.Errorf("core: aged measurement: %w", err)
		finish(err)
		return nil, err
	}

	type key struct{ chip, ch, pc, bank, row int }
	oldBER := make(map[key]float64, len(before))
	for _, r := range before {
		if r.WCDP {
			continue
		}
		oldBER[key{r.Chip, r.Channel, r.Pseudo, r.Bank, r.Row}] = r.BERPercent
	}
	// The join iterates the aged sweep, which the engine already returns
	// in plan order, so the paired records inherit that determinism.
	var out []AgingRecord
	for _, r := range after {
		if r.WCDP {
			continue
		}
		old, ok := oldBER[key{r.Chip, r.Channel, r.Pseudo, r.Bank, r.Row}]
		if !ok {
			continue
		}
		out = append(out, AgingRecord{
			Chip: r.Chip, Channel: r.Channel, Row: r.Row,
			OldBERPercent: old, NewBERPercent: r.BERPercent,
		})
	}
	if agg != nil {
		for _, r := range out {
			agg.inner.Record(r)
		}
		agg.inner.Finish(nil)
	}
	return out, nil
}

// agingSink adapts the caller's sink to the aging experiment's two inner
// BER sweeps: inner lifecycle calls and intermediate records are absorbed
// (RunAgingContext owns Start/Record/Finish on the real sink), and
// progress is re-based so the two passes read as one 0..total sweep.
type agingSink struct {
	inner  Sink
	total  int
	offset int
}

func (s *agingSink) Start(int) {}

func (s *agingSink) Progress(done, _ int) { s.inner.Progress(s.offset+done, s.total) }

func (s *agingSink) Record(any) {}

func (s *agingSink) Finish(error) {}

// Err forwards the real sink's write-failure state so the engine's
// abort-on-dead-stream poll still works through the adapter.
func (s *agingSink) Err() error {
	if f, ok := s.inner.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// AgingSummary aggregates Fig 10's two panels: the distribution of
// New/Old for rows whose BER rose and Old/New for the rest, plus the
// up/down row counts the paper quotes (18713 vs 17973).
type AgingSummary struct {
	RowsUp, RowsDown, RowsEqual int
	// UpRatioPercentiles and DownRatioPercentiles hold P1..P99 of the
	// respective ratio distributions at the paper's percentile marks.
	Percentiles          []float64
	UpRatioPercentiles   []float64
	DownRatioPercentiles []float64
}

// SummarizeAging computes the Fig 10 statistics. Rows with a zero BER on
// the shrinking side are excluded from ratio distributions (as outliers,
// like the paper's 178 omitted rows).
func SummarizeAging(recs []AgingRecord) AgingSummary {
	ps := []float64{1, 5, 10, 25, 50, 75, 90, 95, 99}
	var up, down []float64
	s := AgingSummary{Percentiles: ps}
	for _, r := range recs {
		switch {
		case r.NewBERPercent > r.OldBERPercent:
			s.RowsUp++
			if r.OldBERPercent > 0 {
				up = append(up, r.NewBERPercent/r.OldBERPercent)
			}
		case r.NewBERPercent < r.OldBERPercent:
			s.RowsDown++
			if r.NewBERPercent > 0 {
				down = append(down, r.OldBERPercent/r.NewBERPercent)
			}
		default:
			s.RowsEqual++
		}
	}
	s.UpRatioPercentiles = stats.Percentiles(up, ps)
	s.DownRatioPercentiles = stats.Percentiles(down, ps)
	return s
}
