package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hbmrd/internal/hbm"
)

// Kind identifies one experiment runner. It appears in sweep fingerprints,
// in the header line of streamed JSONL files, and in hbmrdd sweep specs.
type Kind string

// The experiment kinds, one per registered descriptor (see kinds.go).
const (
	KindBER         Kind = "ber"
	KindHCFirst     Kind = "hcfirst"
	KindHCNth       Kind = "hcnth"
	KindVariability Kind = "variability"
	KindRowPressBER Kind = "rowpress-ber"
	KindRowPressHC  Kind = "rowpress-hc"
	KindBypass      Kind = "bypass"
	KindAging       Kind = "aging"
	KindVRD         Kind = "vrd"
	KindColDisturb  Kind = "coldist"
)

// CodeGeneration is the fault-model behaviour generation baked into every
// sweep fingerprint. The golden sweep digests (golden_test.go at the repo
// root) pin the model's byte-level behaviour; whenever those digests are
// deliberately re-pinned, bump this constant in the same commit so stored
// and checkpointed results from the old behaviour stop matching new runs
// instead of being silently resumed or served from cache.
// Generation 2: Geometry grew the rank dimension of the Ramulator2 preset
// port, so canonical geometry JSON (and with it every fingerprint)
// changed shape; record streams of the legacy rank=1 presets are
// unchanged (their golden digests did not move).
const CodeGeneration = 2

// chipIdentity is the per-chip component of a fingerprint: the study index
// plus the row-mapping in effect (identity vs. the vendor swizzle changes
// every physical-row measurement).
type chipIdentity struct {
	Index  int
	Mapper string
}

// fingerprintSweep computes the stable content hash identifying one sweep:
// the experiment kind, the canonical (defaults-resolved) config, the
// fleet's geometry and timing, the chip set with its row mappings, and the
// code-determinism generation. Two runs with equal fingerprints produce
// byte-identical record streams; anything that could change a record must
// feed the hash. cfg must already be filled - struct JSON encoding is
// canonical (declaration-order fields), so filled configs that would run
// identical plans hash identically.
func fingerprintSweep(kind Kind, fleet []*TestChip, cfg any) (string, error) {
	chips := make([]chipIdentity, 0, len(fleet))
	for _, tc := range fleet {
		m := tc.Chip.Mapper()
		chips = append(chips, chipIdentity{Index: tc.Index, Mapper: fmt.Sprintf("%T%+v", m, m)})
	}
	in := struct {
		Format     int
		Kind       Kind
		Generation int
		Geometry   hbm.Geometry
		Timing     hbm.Timing
		Chips      []chipIdentity
		Config     any
	}{sweepFormat, kind, CodeGeneration, fleetGeometry(fleet), fleetTiming(fleet), chips, cfg}
	b, err := json.Marshal(in)
	if err != nil {
		return "", fmt.Errorf("core: fingerprinting %s sweep: %w", kind, err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// FingerprintFor computes the fingerprint a Run*Context call with this
// kind, fleet and config would stamp into its sweep header, without
// running anything. It resolves the config's defaults on a copy, exactly
// as the runner would, so a caller (the hbmrdd service, a store lookup)
// can decide whether an identical sweep already finished. cfg must be the
// kind's config type, by value or by pointer.
func FingerprintFor(kind Kind, fleet []*TestChip, cfg any) (string, error) {
	d, err := LookupKind(kind)
	if err != nil {
		return "", err
	}
	return d.fingerprint(fleet, cfg)
}
