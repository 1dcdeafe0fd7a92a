package hbmrd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"hbmrd"
)

// TestFacadeQuickstartFlow exercises the doc-comment quick start verbatim.
func TestFacadeQuickstartFlow(t *testing.T) {
	chip, err := hbmrd.NewChip(0, hbmrd.WithIdentityMapping())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := chip.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.FillRow(0, 0, 999, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := ch.FillRow(0, 0, 1000, 0x55); err != nil {
		t.Fatal(err)
	}
	if err := ch.FillRow(0, 0, 1001, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := ch.HammerDoubleSided(0, 0, 999, 1001, 300_000, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, hbmrd.RowBytes)
	if err := ch.ReadRow(0, 0, 1000, buf); err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, b := range buf {
		flips += bits.OnesCount8(b ^ 0x55)
	}
	if flips == 0 {
		t.Error("quick start produced no bitflips")
	}
}

func TestFacadeProfilesAndPatterns(t *testing.T) {
	if len(hbmrd.BuiltinProfiles()) != 6 {
		t.Error("six chips expected")
	}
	if len(hbmrd.AllPatterns()) != 4 {
		t.Error("four Table 1 patterns expected")
	}
	if hbmrd.DefaultTiming().ActBudgetPerREFI() != 78 {
		t.Error("ACT budget per tREFI must be 78")
	}
}

func TestFacadeExperimentAndRender(t *testing.T) {
	fleet, err := hbmrd.NewFleet([]int{5}, hbmrd.WithIdentityMapping())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := hbmrd.RunBER(fleet, hbmrd.BERConfig{
		Channels: []int{0},
		Rows:     hbmrd.SampleRows(4),
		Patterns: []hbmrd.Pattern{hbmrd.Checkered0},
		Reps:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// RenderFig4 prints the fig4 preset: one row per (chip, pattern_label)
	// key, the worst-case data pattern as its own WCDP group.
	out := hbmrd.RenderFig4(recs)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var keys []string
	for _, line := range lines[1:] { // after the sweep line: header, then groups
		if f := strings.Fields(line); len(f) > 1 {
			keys = append(keys, f[0]+" "+f[1])
		}
	}
	if want := []string{"chip pattern_label", "5 Checkered0", "5 WCDP"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("render keys = %q, want %q:\n%s", keys, want, out)
	}
}

// TestFacadeStreamingSweep drives the sweep engine through the public API:
// AllChips, a context-aware runner, worker-count control, and a JSONL sink
// whose stream must match the returned records line for line.
func TestFacadeStreamingSweep(t *testing.T) {
	if got := hbmrd.AllChips(); len(got) != 6 || got[0] != 0 || got[5] != 5 {
		t.Fatalf("AllChips() = %v", got)
	}
	fleet, err := hbmrd.NewFleet([]int{3}, hbmrd.WithIdentityMapping())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jsonl := hbmrd.NewJSONLSink(&buf)
	recs, err := hbmrd.RunBERContext(context.Background(), fleet, hbmrd.BERConfig{
		Channels: []int{0, 1},
		Rows:     hbmrd.SampleRows(3),
		Patterns: []hbmrd.Pattern{hbmrd.Checkered0},
		Reps:     1,
	}, hbmrd.WithJobs(2), hbmrd.WithSink(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	// The stream opens with the sweep's fingerprint header line.
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty stream")
	}
	var header hbmrd.SweepHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Format == 0 {
		t.Fatalf("first line is not a sweep header: %s (err %v)", sc.Bytes(), err)
	}
	if header.Kind != string(hbmrd.KindBER) || header.Fingerprint == "" || header.Cells != 2*3 {
		t.Fatalf("header = %+v", header)
	}
	lines := 0
	for sc.Scan() {
		var rec hbmrd.BERRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if !reflect.DeepEqual(rec, recs[lines]) {
			t.Fatalf("line %d diverges from returned record", lines)
		}
		if !rec.WCDP && rec.Pattern != hbmrd.Checkered0 {
			t.Fatalf("line %d: pattern %v did not round-trip", lines, rec.Pattern)
		}
		lines++
	}
	if lines != len(recs) {
		t.Fatalf("streamed %d lines, returned %d records", lines, len(recs))
	}
}

func TestFacadeMemBenderProgram(t *testing.T) {
	prog, err := hbmrd.ParseProgram(strings.NewReader(`
FILLROW 0 0 100 0x55
READROW 0 0 100
`))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := hbmrd.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hbmrd.NewPlatform(chip).Run(0, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reads) != 1 || !bytes.Equal(res.Reads[0].Data[:4], []byte{0x55, 0x55, 0x55, 0x55}) {
		t.Error("program read-back wrong")
	}
}

func TestFacadeThermal(t *testing.T) {
	names, traces, err := hbmrd.SimulateTemperatures(600, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 || len(traces) != 6 {
		t.Fatalf("%d traces", len(traces))
	}
	out := hbmrd.RenderFig3(names, traces)
	if !strings.Contains(out, "Chip 0") {
		t.Error("fig3 render malformed")
	}
}

func TestFacadeUncoverTRR(t *testing.T) {
	if testing.Short() {
		t.Skip("side-channel probing takes a few seconds")
	}
	chip, err := hbmrd.NewChip(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := hbmrd.UncoverTRR(chip)
	if err != nil {
		t.Fatal(err)
	}
	if f.Period != 17 || f.IdentifyThreshold != 5 {
		t.Errorf("findings %+v diverge from the paper's mechanism", f)
	}
}

// TestFacadeGeometryPresets runs the HCfirst experiment across every
// geometry preset through the public API: at least three organizations are
// selectable and every one of them yields measurable read disturbance.
func TestFacadeGeometryPresets(t *testing.T) {
	presets := hbmrd.Presets()
	if len(presets) < 3 {
		t.Fatalf("%d presets, want at least 3", len(presets))
	}
	for _, want := range []string{hbmrd.PresetHBM2, hbmrd.PresetHBM2E, hbmrd.PresetHBM3} {
		if _, err := hbmrd.LookupPreset(want); err != nil {
			t.Fatalf("preset %s missing: %v", want, err)
		}
	}
	for _, preset := range presets {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			t.Parallel()
			fleet, err := hbmrd.NewFleet([]int{0}, hbmrd.WithGeometry(preset))
			if err != nil {
				t.Fatal(err)
			}
			g := fleet[0].Chip.Geometry()
			if g.Name != preset.Name {
				t.Fatalf("chip geometry %q, want %q", g.Name, preset.Name)
			}
			recs, err := hbmrd.RunHCFirst(fleet, hbmrd.HCFirstConfig{
				Channels: []int{g.Channels - 1},
				Rows:     hbmrd.SampleRowsIn(g, 2),
				Patterns: []hbmrd.Pattern{hbmrd.Checkered0},
				Reps:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			found := 0
			for _, r := range recs {
				if r.Found && !r.WCDP {
					found++
					if r.HCFirst <= 0 {
						t.Errorf("row %d: non-positive HCfirst %d", r.Row, r.HCFirst)
					}
				}
			}
			if found == 0 {
				t.Errorf("%s: no row flipped within the search bound", preset.Name)
			}
		})
	}
}

// TestFacadeDefaultGeometryConstantsAgree pins the re-exported constants to
// the default geometry.
func TestFacadeDefaultGeometryConstantsAgree(t *testing.T) {
	g := hbmrd.DefaultGeometry()
	if g.Channels != hbmrd.NumChannels || g.PseudoChannels != hbmrd.NumPseudoChannels ||
		g.Banks != hbmrd.NumBanks || g.Rows != hbmrd.NumRows ||
		g.RowBytes != hbmrd.RowBytes || g.RowBits() != hbmrd.RowBits {
		t.Errorf("DefaultGeometry %+v disagrees with package constants", g)
	}
}
