package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hbmrd/internal/hbm"
)

// TestKindRegistryComplete: every kind Kinds() lists has a descriptor
// that fingerprints and sizes its own zero config, and a round-trip sweep
// case (which wires it into the JSONL and columnar round-trip goldens);
// a kind nobody registered is an error, never a panic, on every path
// that dispatches by kind.
func TestKindRegistryComplete(t *testing.T) {
	t.Parallel()
	preset, err := hbm.LookupPreset(hbm.PresetHBM2)
	if err != nil {
		t.Fatal(err)
	}
	fleet := roundTripFleet(t, preset)
	sweeps := roundTripSweeps(t, preset)
	for _, kind := range Kinds() {
		d, err := LookupKind(kind)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if d.Kind() != kind {
			t.Errorf("LookupKind(%s) returned the %s descriptor", kind, d.Kind())
		}
		if _, ok := sweeps[kind]; !ok {
			t.Errorf("roundTripSweeps has no %s case", kind)
		}
		cfg := d.NewConfig()
		fp, err := FingerprintFor(kind, fleet, cfg)
		if err != nil {
			t.Errorf("%s: FingerprintFor(NewConfig()): %v", kind, err)
		}
		// A config by pointer and by value is the same sweep.
		byValue, err := FingerprintFor(kind, fleet, reflect.ValueOf(cfg).Elem().Interface())
		if err != nil || byValue != fp {
			t.Errorf("%s: fingerprint by value %q (%v), by pointer %q", kind, byValue, err, fp)
		}
		if _, err := PlanSize(kind, fleet, cfg); err != nil && kind != KindAging {
			t.Errorf("%s: PlanSize(NewConfig()): %v", kind, err)
		}
	}
	if len(sweeps) != len(Kinds()) {
		t.Errorf("roundTripSweeps has %d cases for %d registered kinds", len(sweeps), len(Kinds()))
	}

	const bogus Kind = "no-such-kind"
	if _, err := LookupKind(bogus); err == nil {
		t.Error("LookupKind accepted an unregistered kind")
	}
	if _, err := FingerprintFor(bogus, fleet, BERConfig{}); err == nil {
		t.Error("FingerprintFor accepted an unregistered kind")
	}
	if _, err := PlanSize(bogus, fleet, BERConfig{}); err == nil {
		t.Error("PlanSize accepted an unregistered kind")
	}
	var stream bytes.Buffer
	if err := EncodeRecords(&stream, SweepHeader{Format: sweepFormat, Kind: string(bogus),
		Fingerprint: "sha256:" + strings.Repeat("0f", 32)}, []BERRecord{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Kind{"", bogus} {
		if _, _, err := DecodeRecords(want, bytes.NewReader(stream.Bytes())); err == nil {
			t.Errorf("DecodeRecords(%q) accepted an unregistered kind", want)
		}
	}
	if err := VerifyComplete(SweepHeader{Kind: string(bogus)}, []BERRecord{}); err == nil {
		t.Error("VerifyComplete accepted an unregistered kind")
	}
	if err := EncodeColumnar(&stream, SweepHeader{Kind: string(bogus)}, []BERRecord{}); err == nil {
		t.Error("EncodeColumnar accepted an unregistered kind")
	}
	// DecodeColumnar's unknown-kind case is in TestColumnarRejectsMalformed.
}
