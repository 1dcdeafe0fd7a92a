package query

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hbmrd/internal/core"
)

// TestKindVocabularyComplete: every registered kind declares dimensions
// and metrics, every column its fields read is in the kind's registered
// schema, and every declared name resolves to an accessor; the table
// declares no kind the registry lacks.
func TestKindVocabularyComplete(t *testing.T) {
	t.Parallel()
	for _, kind := range core.Kinds() {
		dims, mets := Dimensions(kind), Metrics(kind)
		if len(dims) == 0 || len(mets) == 0 {
			t.Errorf("%s declares %d dimensions and %d metrics", kind, len(dims), len(mets))
			continue
		}
		// A header-only stream decodes to the kind's empty typed slice,
		// which transposes into every schema column.
		var stream bytes.Buffer
		h := core.SweepHeader{Format: 1, Kind: string(kind), Fingerprint: "sha256:" + strings.Repeat("5e", 32)}
		if err := core.EncodeRecords(&stream, h, []struct{}{}); err != nil {
			t.Fatal(err)
		}
		_, recs, err := core.DecodeRecords(kind, &stream)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := core.ExtractColumns(kind, recs)
		if err != nil {
			t.Fatal(err)
		}
		src, err := columnarSource(kind, cs, Env{})
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		for _, d := range dims {
			if src.dim(d) == nil {
				t.Errorf("%s dimension %s has no accessor", kind, d)
			}
		}
		for _, m := range mets {
			if src.metric(m) == nil {
				t.Errorf("%s metric %s has no accessor", kind, m)
			}
		}
	}
	if len(kindFields) != len(core.Kinds()) {
		t.Errorf("kindFields declares %d kinds, the registry has %d", len(kindFields), len(core.Kinds()))
	}
	if dims := Dimensions("no-such-kind"); len(dims) != 0 {
		t.Errorf("unregistered kind has dimensions %v", dims)
	}
}

// TestKindVocabularyPinned pins every kind's dimension and metric names:
// they are the query language stored specs and perfbench's query
// generator draw from, so the field table may only add to them.
func TestKindVocabularyPinned(t *testing.T) {
	t.Parallel()
	cell := []string{"bank", "channel", "chip", "pseudo", "rank", "row"}
	with := func(names ...string) []string {
		out := append(append([]string(nil), cell...), names...)
		sort.Strings(out)
		return out
	}
	want := map[core.Kind][2][]string{
		core.KindBER:         {with("pattern", "pattern_label", "wcdp"), {"ber_percent"}},
		core.KindHCFirst:     {with("found", "pattern", "pattern_label", "wcdp"), {"hcfirst"}},
		core.KindHCNth:       {{"channel", "chip", "found", "pattern", "pattern_label", "row"}, {"additional", "flips", "hc_first", "hc_last"}},
		core.KindVariability: {{"chip", "measured", "row"}, {"max_hc", "min_hc", "ratio"}},
		core.KindRowPressBER: {{"channel", "chip", "tagg_on"}, {"ber_percent", "retention_ber_percent", "rows"}},
		core.KindRowPressHC:  {{"channel", "chip", "found", "row", "tagg_on", "within_window"}, {"hcfirst"}},
		core.KindBypass:      {{"agg_acts", "chip", "dummies", "row"}, {"ber_percent"}},
		core.KindAging:       {{"channel", "chip", "row"}, {"delta_ber_percent", "new_ber_percent", "old_ber_percent"}},
		core.KindVRD:         {with("measured", "pattern", "pattern_label"), {"found", "max_hc", "mean_hc", "min_hc", "phc", "ratio", "trials"}},
		core.KindColDisturb:  {with("distance", "found", "stripe"), {"first_disturb", "flips", "reads"}},
	}
	for _, kind := range core.Kinds() {
		if got := Dimensions(kind); !reflect.DeepEqual(got, want[kind][0]) {
			t.Errorf("Dimensions(%s) = %v, want %v", kind, got, want[kind][0])
		}
		if got := Metrics(kind); !reflect.DeepEqual(got, want[kind][1]) {
			t.Errorf("Metrics(%s) = %v, want %v", kind, got, want[kind][1])
		}
	}
}
