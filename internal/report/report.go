// Package report renders experiment results in the shape of the paper's
// tables and figures, as aligned text tables (and CSV series where the
// figure is a curve). A figure with a query preset (query.FigureSpec:
// Figs 4-7, 9, 13, 14 and 16, and the VRD and column-disturb views) is
// defined once, by that preset, and renders through Figure and
// AggregateTable. The other renderers cover what no preset expresses:
// the tables, Fig 3, the Fig 8 CSV, Figs 10-12, 15 and 17, and the
// retention, TRR, templating and defense summaries. All are pure
// functions over the core package's record types.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"hbmrd/internal/core"
	"hbmrd/internal/ecc"
	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/stats"
	"hbmrd/internal/thermal"
	"hbmrd/internal/utrr"
)

// table builds an aligned text table.
func table(build func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	build(w)
	w.Flush()
	return sb.String()
}

func fmtDur(t hbm.TimePS) string {
	switch {
	case t >= hbm.MS:
		return fmt.Sprintf("%.1fms", float64(t)/float64(hbm.MS))
	case t >= hbm.US:
		return fmt.Sprintf("%.1fus", float64(t)/float64(hbm.US))
	default:
		return fmt.Sprintf("%.1fns", float64(t)/float64(hbm.NS))
	}
}

// Table1 renders the paper's Table 1 (data patterns).
func Table1() string {
	rows := core.Table1()
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Row Addresses\tRowstripe0\tRowstripe1\tCheckered0\tCheckered1")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t0x%02X\t0x%02X\t0x%02X\t0x%02X\n",
				r.Addresses, r.Bytes[0], r.Bytes[1], r.Bytes[2], r.Bytes[3])
		}
	})
}

// Table2 renders the paper's Table 2 (tested components per experiment).
func Table2() string {
	rows := core.Table2()
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Experiment Type\tRows (Per Bank)\tBanks\tPseudo Channels\tChannels")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n",
				r.Experiment, r.RowsPerBank, r.Banks, r.PseudoChannels, r.Channels)
		}
	})
}

// Fig3 renders per-chip temperature trace summaries (mean/min/max/max-step
// over the sampled window), the stability argument of Fig 3.
func Fig3(names []string, traces [][]thermal.Sample) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Chip\tSamples\tMean(C)\tMin(C)\tMax(C)\tMaxStep(C)")
		for i, name := range names {
			st := thermal.Summarize(traces[i])
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\n",
				name, st.N, st.Mean, st.Min, st.Max, st.MaxStep)
		}
	})
}

// Fig8CSV renders the per-row BER series of Fig 8 as CSV (row, then one
// column per channel), with discovered subarray boundaries appended as
// comments.
func Fig8CSV(recs []core.BERRecord, boundaries []int) string {
	channels := map[int]bool{}
	type key struct{ row, ch int }
	vals := map[key]float64{}
	rows := map[int]bool{}
	for _, r := range recs {
		if !r.WCDP {
			continue
		}
		channels[r.Channel] = true
		rows[r.Row] = true
		vals[key{r.Row, r.Channel}] = r.BERPercent
	}
	chList := make([]int, 0, len(channels))
	for c := range channels {
		chList = append(chList, c)
	}
	sort.Ints(chList)
	rowList := make([]int, 0, len(rows))
	for r := range rows {
		rowList = append(rowList, r)
	}
	sort.Ints(rowList)

	var sb strings.Builder
	sb.WriteString("row")
	for _, c := range chList {
		fmt.Fprintf(&sb, ",CH%d_BER%%", c)
	}
	sb.WriteString("\n")
	for _, row := range rowList {
		fmt.Fprintf(&sb, "%d", row)
		for _, c := range chList {
			fmt.Fprintf(&sb, ",%.4f", vals[key{row, c}])
		}
		sb.WriteString("\n")
	}
	for _, b := range boundaries {
		fmt.Fprintf(&sb, "# subarray boundary at physical row %d\n", b)
	}
	return sb.String()
}

// Fig10 renders the aging summary (row counts and ratio percentiles).
func Fig10(s core.AgingSummary) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "Rows with higher BER after aging:\t%d\n", s.RowsUp)
		fmt.Fprintf(w, "Rows with lower BER after aging:\t%d\n", s.RowsDown)
		fmt.Fprintf(w, "Rows unchanged:\t%d\n", s.RowsEqual)
		fmt.Fprintln(w, "Percentile\tNew/Old (rows up)\tOld/New (rows down)")
		for i, p := range s.Percentiles {
			fmt.Fprintf(w, "P%.0f\t%.3f\t%.3f\n", p, s.UpRatioPercentiles[i], s.DownRatioPercentiles[i])
		}
	})
}

// Fig11 renders the distribution of HCk normalized to HCfirst per pattern.
func Fig11(recs []core.HCNthRecord) string {
	maxK := 0
	for _, r := range recs {
		if r.Found && len(r.HC) > maxK {
			maxK = len(r.HC)
		}
	}
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Pattern\tFlip#\tN\tMeanHC/HC1\tMinHC/HC1\tMedian\tMaxHC/HC1")
		for _, p := range pattern.All() {
			for k := 0; k < maxK; k++ {
				var xs []float64
				for _, r := range recs {
					if r.Pattern != p || !r.Found || len(r.HC) <= k {
						continue
					}
					xs = append(xs, float64(r.HC[k])/float64(r.HC[0]))
				}
				if len(xs) == 0 {
					continue
				}
				b := stats.Box(xs)
				fmt.Fprintf(w, "%s\tHC%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
					p, k+1, b.N, b.Mean, b.Min, b.Median, b.Max)
			}
		}
	})
}

// Fig12 renders the per-chip Pearson correlations and trend fits.
func Fig12(statsList []core.Fig12Stats) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Chip\tRows\tPearson(HC1, extra-to-10th)\tTrend c0\tc1\tc2")
		for _, s := range statsList {
			if len(s.PolyCoef) == 3 {
				fmt.Fprintf(w, "Chip %d\t%d\t%.3f\t%.3g\t%.3g\t%.3g\n",
					s.Chip, s.N, s.Pearson, s.PolyCoef[0], s.PolyCoef[1], s.PolyCoef[2])
			} else {
				fmt.Fprintf(w, "Chip %d\t%d\t%.3f\t-\t-\t-\n", s.Chip, s.N, s.Pearson)
			}
		}
	})
}

// Fig15 renders average and minimum HCfirst per tAggON across all chips
// (the paper: 83689 (29183), 1519 (335), 376 (123), 1 (1)), restricted to
// rows that flip within the refresh window at every tAggON.
func Fig15(recs []core.RowPressHCRecord) string {
	// Identify rows eligible at every tAggON.
	type rowKey struct{ chip, ch, row int }
	counts := map[rowKey]int{}
	tons := map[hbm.TimePS]bool{}
	for _, r := range recs {
		tons[r.TAggON] = true
		if r.Found && r.WithinWindow {
			counts[rowKey{r.Chip, r.Channel, r.Row}]++
		}
	}
	need := len(tons)
	byTon := map[hbm.TimePS][]float64{}
	for _, r := range recs {
		if !r.Found || counts[rowKey{r.Chip, r.Channel, r.Row}] != need {
			continue
		}
		byTon[r.TAggON] = append(byTon[r.TAggON], float64(r.HCFirst))
	}
	tonList := make([]hbm.TimePS, 0, len(byTon))
	for t := range byTon {
		tonList = append(tonList, t)
	}
	sort.Slice(tonList, func(i, j int) bool { return tonList[i] < tonList[j] })
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "tAggON\tRows\tAvg HCfirst\tMin HCfirst")
		for _, t := range tonList {
			xs := byTon[t]
			fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\n", fmtDur(t), len(xs), stats.Mean(xs), stats.Min(xs))
		}
	})
}

// Fig17 renders the word-level flip histogram and the SECDED outcome.
func Fig17(hists map[pattern.Pattern]*ecc.FlipHistogram) string {
	pats := make([]pattern.Pattern, 0, len(hists))
	for p := range hists {
		pats = append(pats, p)
	}
	sort.Slice(pats, func(i, j int) bool { return pats[i] < pats[j] })
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Pattern\t1 flip\t2\t3\t4\t5\t6\t7\t>7\tMaxFlips\tSECDED corrected\tdetected\tescaped")
		for _, p := range pats {
			h := hists[p]
			out := ecc.ClassifySECDED(*h)
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				p, h.PerCount[0], h.PerCount[1], h.PerCount[2], h.PerCount[3],
				h.PerCount[4], h.PerCount[5], h.PerCount[6], h.Over7, h.MaxFlips,
				out.Corrected, out.Detected, out.Escaped)
		}
	})
}

// Retention renders the §6 retention-BER baselines (the failures the
// RowPress analysis subtracts): after waits of 34.8 ms, 1.17 s and 10.53 s
// the paper measures 0%, 0.013% and 0.134%.
func Retention(waits []hbm.TimePS, bers []float64) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Unrefreshed wait\tRetention BER%")
		for i := range waits {
			fmt.Fprintf(w, "%s\t%.4f\n", fmtDur(waits[i]), bers[i]*100)
		}
	})
}

// UTRR renders the uncovered TRR mechanism (§7, Obsv 20-23).
func UTRR(f utrr.Findings) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "TRR-capable REF cadence (Obsv 20):\tevery %d REFs\n", f.Period)
		fmt.Fprintf(w, "Refreshes both adjacent rows (Obsv 21):\t%v\n", f.RefreshesBothNeighbors)
		fmt.Fprintf(w, "First ACT after TRR-capable REF identified (Obsv 22):\t%v\n", f.FirstActIdentified)
		fmt.Fprintf(w, "Per-window identification threshold (Obsv 23):\t%d activations\n", f.IdentifyThreshold)
	})
}
