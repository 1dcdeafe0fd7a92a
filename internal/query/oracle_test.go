package query

import (
	"fmt"

	"hbmrd/internal/core"
	"hbmrd/internal/pattern"
)

// The flatten row model below is the equivalence oracle for the column
// accessors: a per-kind hand-written decode of typed records into named
// dimension and metric maps, independent of the field table.

// row is one flattened record: named dimensions plus named metrics.
type row struct {
	dims    map[string]dimVal
	metrics map[string]float64
}

// patternDims is the shared (pattern, pattern_label, wcdp) triple of the
// BER-shaped records. pattern_label folds WCDP into the pattern axis the
// way the paper's figures label it.
func patternDims(d map[string]dimVal, p pattern.Pattern, wcdp bool) {
	d["pattern"] = dStr(p.String())
	label := p.String()
	if wcdp {
		label = "WCDP"
	}
	d["pattern_label"] = dStr(label)
	d["wcdp"] = dBool(wcdp)
}

// flatten decodes a kind's typed record slice (the shape DecodeRecords
// returns) into the generic row model the pipeline groups and reduces.
// Row order is record order, which is plan order.
func flatten(kind core.Kind, records any, env Env) ([]row, error) {
	var rows []row
	add := func(dims map[string]dimVal, metrics map[string]float64) {
		rows = append(rows, row{dims: dims, metrics: metrics})
	}
	switch recs := records.(type) {
	case []core.BERRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "pseudo": dInt(r.Pseudo),
				"bank": dInt(r.Bank), "rank": dInt(env.rankOf(r.Bank)), "row": dInt(r.Row),
			}
			patternDims(d, r.Pattern, r.WCDP)
			add(d, map[string]float64{"ber_percent": r.BERPercent})
		}
	case []core.HCFirstRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "pseudo": dInt(r.Pseudo),
				"bank": dInt(r.Bank), "rank": dInt(env.rankOf(r.Bank)), "row": dInt(r.Row),
				"found": dBool(r.Found),
			}
			patternDims(d, r.Pattern, r.WCDP)
			add(d, map[string]float64{"hcfirst": float64(r.HCFirst)})
		}
	case []core.HCNthRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "row": dInt(r.Row),
				"found": dBool(r.Found),
			}
			patternDims(d, r.Pattern, false)
			m := map[string]float64{"flips": float64(len(r.HC))}
			if len(r.HC) > 0 {
				m["hc_first"] = float64(r.HC[0])
				m["hc_last"] = float64(r.HC[len(r.HC)-1])
				m["additional"] = float64(r.Additional())
			}
			add(d, m)
		}
	case []core.VariabilityRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "row": dInt(r.Row), "measured": dBool(r.MeasuredRatios),
			}
			add(d, map[string]float64{
				"min_hc": float64(r.MinHC), "max_hc": float64(r.MaxHC), "ratio": r.Ratio(),
			})
		}
	case []core.RowPressBERRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "tagg_on": dInt64(int64(r.TAggON)),
			}
			add(d, map[string]float64{
				"ber_percent": r.BERPercent, "retention_ber_percent": r.RetentionBERPercent,
				"rows": float64(r.Rows),
			})
		}
	case []core.RowPressHCRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "row": dInt(r.Row),
				"tagg_on": dInt64(int64(r.TAggON)), "found": dBool(r.Found),
				"within_window": dBool(r.WithinWindow),
			}
			add(d, map[string]float64{"hcfirst": float64(r.HCFirst)})
		}
	case []core.BypassRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "row": dInt(r.Row),
				"dummies": dInt(r.Dummies), "agg_acts": dInt(r.AggActs),
			}
			add(d, map[string]float64{"ber_percent": r.BERPercent})
		}
	case []core.AgingRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "row": dInt(r.Row),
			}
			add(d, map[string]float64{
				"old_ber_percent": r.OldBERPercent, "new_ber_percent": r.NewBERPercent,
				"delta_ber_percent": r.NewBERPercent - r.OldBERPercent,
			})
		}
	case []core.VRDRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "pseudo": dInt(r.Pseudo),
				"bank": dInt(r.Bank), "rank": dInt(env.rankOf(r.Bank)), "row": dInt(r.Row),
				"measured": dBool(r.Found > 0),
			}
			patternDims(d, r.Pattern, false)
			add(d, map[string]float64{
				"min_hc": float64(r.MinHC), "max_hc": float64(r.MaxHC), "mean_hc": r.MeanHC,
				"phc": float64(r.PHC), "ratio": r.Ratio(),
				"found": float64(r.Found), "trials": float64(r.Trials),
			})
		}
	case []core.ColDisturbRecord:
		for _, r := range recs {
			d := map[string]dimVal{
				"chip": dInt(r.Chip), "channel": dInt(r.Channel), "pseudo": dInt(r.Pseudo),
				"bank": dInt(r.Bank), "rank": dInt(env.rankOf(r.Bank)), "row": dInt(r.Row),
				"distance": dInt(r.Distance), "stripe": dInt(r.Stripe), "found": dBool(r.Found),
			}
			add(d, map[string]float64{
				"flips": float64(r.Flips), "first_disturb": float64(r.FirstDisturb),
				"reads": float64(r.Reads),
			})
		}
	default:
		return nil, fmt.Errorf("query: unsupported record slice %T for kind %s", records, kind)
	}
	return rows, nil
}

// rowsSource adapts the flattened row model to the source interface.
func rowsSource(rows []row) rowSource {
	return rowSource{
		n: len(rows),
		dim: func(name string) func(i int) dimVal {
			return func(i int) dimVal { return rows[i].dims[name] }
		},
		metric: func(name string) func(i int) (float64, bool) {
			return func(i int) (float64, bool) {
				mv, ok := rows[i].metrics[name]
				return mv, ok
			}
		},
	}
}

// computeFlatten is ComputeEnv over the flatten row model: the reference
// every column-backed aggregate must match byte for byte.
func computeFlatten(kind core.Kind, records any, spec Spec, env Env) (*Aggregate, error) {
	cspec, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	rows, err := flatten(kind, records, env)
	if err != nil {
		return nil, err
	}
	return computeOver(kind, rowsSource(rows), cspec)
}
