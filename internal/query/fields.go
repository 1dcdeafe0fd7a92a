package query

import (
	"sort"

	"hbmrd/internal/core"
)

// Each kind's query vocabulary is declared once, in kindFields: every
// dimension and metric is a name, the record columns it reads, and a
// formatter that turns those typed columns into a per-row accessor.
// Dimensions and Metrics list the names; columnarSource wires the
// accessors over a column set decoded from the store's columnar twin.
// Accessors close over the typed column slices, so computeOver's row loop
// does no reflection and no lookups by name.

// field is one entry of a kind's vocabulary: a dimension (dim set) or a
// metric (met set), the record columns it reads, and the formatter that
// builds its per-row accessor over them. A metric accessor's second
// result is false for a record that does not carry the metric (hc_first
// of an HCNth record that never flipped).
type field struct {
	name string
	cols []string
	dim  func(c []*core.Column, env Env) func(i int) dimVal
	met  func(c []*core.Column) func(i int) (float64, bool)
}

var kindFields = map[core.Kind][]field{
	core.KindBER: cellDims(patternDim, wcdpLabelDim, boolDim("wcdp", "WCDP"),
		floatMet("ber_percent", "BERPercent")),
	core.KindHCFirst: cellDims(patternDim, wcdpLabelDim, boolDim("wcdp", "WCDP"), boolDim("found", "Found"),
		intMet("hcfirst", "HCFirst")),
	core.KindHCNth: {intDim("chip", "Chip"), intDim("channel", "Channel"), intDim("row", "Row"),
		patternDim, labelDim("pattern_label", "Pattern"), boolDim("found", "Found"),
		{name: "flips", cols: []string{"HC"}, met: func(c []*core.Column) func(int) (float64, bool) {
			hc := c[0].IntLists
			return func(i int) (float64, bool) { return float64(len(hc[i])), true }
		}},
		hcListMet("hc_first", func(l []int) int { return l[0] }),
		hcListMet("hc_last", func(l []int) int { return l[len(l)-1] }),
		hcListMet("additional", func(l []int) int { return l[len(l)-1] - l[0] })},
	core.KindVariability: {intDim("chip", "Chip"), intDim("row", "Row"), boolDim("measured", "MeasuredRatios"),
		intMet("min_hc", "MinHC"), intMet("max_hc", "MaxHC"), ratioMet},
	core.KindRowPressBER: {intDim("chip", "Chip"), intDim("channel", "Channel"), int64Dim("tagg_on", "TAggON"),
		floatMet("ber_percent", "BERPercent"), floatMet("retention_ber_percent", "RetentionBERPercent"),
		intMet("rows", "Rows")},
	core.KindRowPressHC: {intDim("chip", "Chip"), intDim("channel", "Channel"), intDim("row", "Row"),
		int64Dim("tagg_on", "TAggON"), boolDim("found", "Found"), boolDim("within_window", "WithinWindow"),
		intMet("hcfirst", "HCFirst")},
	core.KindBypass: {intDim("chip", "Chip"), intDim("row", "Row"), intDim("dummies", "Dummies"),
		intDim("agg_acts", "AggActs"), floatMet("ber_percent", "BERPercent")},
	core.KindAging: {intDim("chip", "Chip"), intDim("channel", "Channel"), intDim("row", "Row"),
		floatMet("old_ber_percent", "OldBERPercent"), floatMet("new_ber_percent", "NewBERPercent"),
		{name: "delta_ber_percent", cols: []string{"OldBERPercent", "NewBERPercent"}, met: func(c []*core.Column) func(int) (float64, bool) {
			old, cur := c[0].Floats, c[1].Floats
			return func(i int) (float64, bool) { return cur[i] - old[i], true }
		}}},
	core.KindVRD: cellDims(patternDim, labelDim("pattern_label", "Pattern"),
		field{name: "measured", cols: []string{"Found"}, dim: func(c []*core.Column, _ Env) func(int) dimVal {
			found := c[0].Ints
			return func(i int) dimVal { return dBool(found[i] > 0) }
		}},
		intMet("min_hc", "MinHC"), intMet("max_hc", "MaxHC"), floatMet("mean_hc", "MeanHC"), intMet("phc", "PHC"),
		ratioMet, intMet("found", "Found"), intMet("trials", "Trials")),
	core.KindColDisturb: cellDims(intDim("distance", "Distance"), intDim("stripe", "Stripe"), boolDim("found", "Found"),
		intMet("flips", "Flips"), intMet("first_disturb", "FirstDisturb"), intMet("reads", "Reads")),
}

// Dimensions lists the group-by/filter vocabulary of a kind's records,
// sorted. The plan's generic "point" axis appears here as the concrete
// dimensions it decodes to (row, tagg_on, dummies, agg_acts, ...).
func Dimensions(kind core.Kind) []string { return fieldNames(kind, true) }

// Metrics lists the aggregatable value fields of a kind's records, sorted.
func Metrics(kind core.Kind) []string { return fieldNames(kind, false) }

func fieldNames(kind core.Kind, dims bool) []string {
	var names []string
	for _, f := range kindFields[kind] {
		if (f.dim != nil) == dims {
			names = append(names, f.name)
		}
	}
	sort.Strings(names)
	return names
}

// cellDims are the dimensions of records that carry a full plan-cell
// address - chip, channel, pseudo, bank, the rank the bank falls in, and
// row - followed by more fields.
func cellDims(more ...field) []field {
	return append([]field{intDim("chip", "Chip"), intDim("channel", "Channel"), intDim("pseudo", "Pseudo"),
		intDim("bank", "Bank"), rankDim, intDim("row", "Row")}, more...)
}

func intDim(name, col string) field {
	return field{name: name, cols: []string{col}, dim: func(c []*core.Column, _ Env) func(int) dimVal {
		v := c[0].Ints
		return func(i int) dimVal { return dInt(int(v[i])) }
	}}
}

func int64Dim(name, col string) field {
	return field{name: name, cols: []string{col}, dim: func(c []*core.Column, _ Env) func(int) dimVal {
		v := c[0].Ints
		return func(i int) dimVal { return dInt64(v[i]) }
	}}
}

func boolDim(name, col string) field {
	return field{name: name, cols: []string{col}, dim: func(c []*core.Column, _ Env) func(int) dimVal {
		v := c[0].Bools
		return func(i int) dimVal { return dBool(v[i]) }
	}}
}

// labelDim reads a dictionary (pattern) column as its label.
func labelDim(name, col string) field {
	return field{name: name, cols: []string{col}, dim: func(c []*core.Column, _ Env) func(int) dimVal {
		idx, labels := c[0].Ints, c[0].Labels
		return func(i int) dimVal { return dStr(labels[idx[i]]) }
	}}
}

var (
	patternDim = labelDim("pattern", "Pattern")
	// wcdpLabelDim folds the WCDP flag into the pattern axis the way the
	// paper's figures label it.
	wcdpLabelDim = field{name: "pattern_label", cols: []string{"Pattern", "WCDP"}, dim: func(c []*core.Column, _ Env) func(int) dimVal {
		idx, labels, wcdp := c[0].Ints, c[0].Labels, c[1].Bools
		return func(i int) dimVal {
			if wcdp[i] {
				return dStr("WCDP")
			}
			return dStr(labels[idx[i]])
		}
	}}
	// rankDim derives the rank from the flat bank address through the
	// sweep's Env.
	rankDim = field{name: "rank", cols: []string{"Bank"}, dim: func(c []*core.Column, env Env) func(int) dimVal {
		bank := c[0].Ints
		return func(i int) dimVal { return dInt(env.rankOf(int(bank[i]))) }
	}}
	// ratioMet is MaxHC/MinHC, 0 when MinHC is 0 (the row never flipped).
	ratioMet = field{name: "ratio", cols: []string{"MinHC", "MaxHC"}, met: func(c []*core.Column) func(int) (float64, bool) {
		mn, mx := c[0].Ints, c[1].Ints
		return func(i int) (float64, bool) {
			if mn[i] == 0 {
				return 0, true
			}
			return float64(mx[i]) / float64(mn[i]), true
		}
	}}
)

func intMet(name, col string) field {
	return field{name: name, cols: []string{col}, met: func(c []*core.Column) func(int) (float64, bool) {
		v := c[0].Ints
		return func(i int) (float64, bool) { return float64(v[i]), true }
	}}
}

func floatMet(name, col string) field {
	return field{name: name, cols: []string{col}, met: func(c []*core.Column) func(int) (float64, bool) {
		v := c[0].Floats
		return func(i int) (float64, bool) { return v[i], true }
	}}
}

// hcListMet is a metric over HCNth's per-flip hammer counts; a record
// with an empty list does not carry it.
func hcListMet(name string, f func(hc []int) int) field {
	return field{name: name, cols: []string{"HC"}, met: func(c []*core.Column) func(int) (float64, bool) {
		hc := c[0].IntLists
		return func(i int) (float64, bool) {
			if len(hc[i]) == 0 {
				return 0, false
			}
			return float64(f(hc[i])), true
		}
	}}
}
