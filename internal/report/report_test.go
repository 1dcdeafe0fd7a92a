package report

import (
	"strings"
	"testing"

	"hbmrd/internal/core"
	"hbmrd/internal/ecc"
	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/thermal"
	"hbmrd/internal/utrr"
)

func TestTable1ContainsPatternBytes(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Rowstripe0", "Checkered1", "0x55", "0xAA", "0xFF", "Victim (V)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ContainsComponentCounts(t *testing.T) {
	out := Table2()
	for _, want := range []string{"RowHammer BER", "16384", "3072", "RowPress HCfirst"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q", want)
		}
	}
}

func TestFig3(t *testing.T) {
	setups := thermal.PaperSetups()[:2]
	var names []string
	var traces [][]thermal.Sample
	for _, s := range setups {
		tr, err := thermal.Simulate(s, 600, 5)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, s.Name)
		traces = append(traces, tr)
	}
	out := Fig3(names, traces)
	if !strings.Contains(out, "Chip 0") || !strings.Contains(out, "MaxStep") {
		t.Errorf("Fig3 output malformed:\n%s", out)
	}
}

func TestFig8CSV(t *testing.T) {
	recs := []core.BERRecord{
		{Chip: 0, Channel: 0, Row: 10, WCDP: true, BERPercent: 1.5},
		{Chip: 0, Channel: 1, Row: 10, WCDP: true, BERPercent: 0.7},
		{Chip: 0, Channel: 0, Row: 11, WCDP: true, BERPercent: 1.4},
	}
	out := Fig8CSV(recs, []int{832})
	if !strings.HasPrefix(out, "row,CH0_BER%,CH1_BER%") {
		t.Errorf("Fig8 CSV header wrong:\n%s", out)
	}
	if !strings.Contains(out, "# subarray boundary at physical row 832") {
		t.Error("Fig8 CSV missing boundary comment")
	}
	if !strings.Contains(out, "10,1.5000,0.7000") {
		t.Errorf("Fig8 CSV rows wrong:\n%s", out)
	}
}

func TestFig10(t *testing.T) {
	s := core.SummarizeAging([]core.AgingRecord{
		{OldBERPercent: 1, NewBERPercent: 2},
		{OldBERPercent: 2, NewBERPercent: 1},
		{OldBERPercent: 1, NewBERPercent: 1},
	})
	out := Fig10(s)
	if !strings.Contains(out, "higher BER after aging:  1") && !strings.Contains(out, "higher BER after aging") {
		t.Errorf("Fig10 malformed:\n%s", out)
	}
}

func TestFig11And12(t *testing.T) {
	recs := []core.HCNthRecord{
		{Chip: 0, Row: 1, Pattern: pattern.Checkered0, Found: true,
			HC: []int{100, 110, 120, 130, 140, 150, 160, 170, 180, 190}},
		{Chip: 0, Row: 2, Pattern: pattern.Checkered0, Found: true,
			HC: []int{200, 210, 215, 220, 225, 230, 235, 240, 245, 250}},
		{Chip: 0, Row: 3, Pattern: pattern.Checkered0, Found: true,
			HC: []int{300, 301, 302, 303, 304, 305, 306, 307, 308, 309}},
	}
	out11 := Fig11(recs)
	if !strings.Contains(out11, "HC10") {
		t.Errorf("Fig11 missing HC10 row:\n%s", out11)
	}
	st, err := core.ComputeFig12(recs)
	if err != nil {
		t.Fatal(err)
	}
	out12 := Fig12(st)
	if !strings.Contains(out12, "Pearson") {
		t.Errorf("Fig12 malformed:\n%s", out12)
	}
}

// TestFig15 covers the one tAggON figure no query preset expresses: rows
// that flip within the refresh window at every tAggON.
func TestFig15(t *testing.T) {
	out15 := Fig15([]core.RowPressHCRecord{
		{Chip: 0, Channel: 0, Row: 1, TAggON: 29 * hbm.NS, HCFirst: 80000, Found: true, WithinWindow: true},
		{Chip: 0, Channel: 0, Row: 1, TAggON: 16 * hbm.MS, HCFirst: 1, Found: true, WithinWindow: true},
	})
	if !strings.Contains(out15, "16.0ms") {
		t.Errorf("Fig15 malformed:\n%s", out15)
	}
}

func TestFig17(t *testing.T) {
	h := &ecc.FlipHistogram{}
	h.PerCount = [7]int{5, 3, 1, 0, 0, 0, 0}
	h.Over7 = 2
	h.MaxFlips = 16
	out := Fig17(map[pattern.Pattern]*ecc.FlipHistogram{pattern.Checkered0: h})
	if !strings.Contains(out, "Checkered0") || !strings.Contains(out, "16") {
		t.Errorf("Fig17 malformed:\n%s", out)
	}
}

func TestUTRRReport(t *testing.T) {
	out := UTRR(utrr.Findings{Period: 17, RefreshesBothNeighbors: true, FirstActIdentified: true, IdentifyThreshold: 5})
	for _, want := range []string{"every 17 REFs", "Obsv 21", "Obsv 22", "5 activations"} {
		if !strings.Contains(out, want) {
			t.Errorf("UTRR report missing %q:\n%s", want, out)
		}
	}
}
