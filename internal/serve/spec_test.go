package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hbmrd/internal/core"
)

// TestResolveEveryKind: Resolve binds every registered kind from its name
// alone, fingerprinting exactly as core does for the same fleet and
// config, decodes a spec's config strictly into that kind's own type, and
// rejects an unregistered kind with an error.
func TestResolveEveryKind(t *testing.T) {
	t.Parallel()
	fleet, err := core.NewFleet([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range core.Kinds() {
		sw, err := Resolve(SweepSpec{Kind: string(kind), Chips: []int{0}})
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		d, err := core.LookupKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.FingerprintFor(kind, fleet, reflect.ValueOf(d.NewConfig()).Elem().Interface())
		if err != nil {
			t.Fatal(err)
		}
		if sw.Kind != kind || sw.Fingerprint != want {
			t.Errorf("%s resolved as %s %s, want %s", kind, sw.Kind, sw.Fingerprint, want)
		}
		if (sw.Cells == 0) != (kind == core.KindAging) {
			t.Errorf("%s resolved with a %d-cell plan", kind, sw.Cells)
		}
	}
	if _, err := Resolve(SweepSpec{Kind: "no-such-kind"}); err == nil || !strings.Contains(err.Error(), "unknown sweep kind") {
		t.Errorf("unregistered kind: %v", err)
	}
	// Trials is a vrd knob, not a ber one.
	if _, err := Resolve(SweepSpec{Kind: string(core.KindBER), Config: json.RawMessage(`{"Trials":3}`)}); err == nil {
		t.Error("a ber spec accepted a vrd config field")
	}
}
