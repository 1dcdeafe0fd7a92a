package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Sharding: a sweep's plan is an explicit ordered cell list, so any
// contiguous cell range [Start, End) is itself a well-defined sub-sweep
// whose record stream is exactly the corresponding slice of the parent's.
// A shard carries its own fingerprint - ShardFingerprint(parent, start,
// end) - derived from the parent's, so shards dedup, store, checkpoint,
// and resume through every existing fingerprint-keyed path unchanged. The
// distributed coordinator (internal/fabric) splits a plan into shard
// ranges, runs them on separate workers, and reassembles the parent
// stream by concatenating shard payloads in range order.

// ShardRange selects the contiguous plan cell range [Start, End) of a
// sweep. Ranges are half-open over the parent plan's cell indexes.
type ShardRange struct {
	Start, End int
}

// validate checks the range against a plan of the given cell count.
func (sr ShardRange) validate(cells int) error {
	if sr.Start < 0 || sr.End > cells || sr.Start >= sr.End {
		return fmt.Errorf("core: shard range [%d:%d) invalid for a plan of %d cells", sr.Start, sr.End, cells)
	}
	return nil
}

// WithShard restricts a run to the plan cells in r. The run executes only
// that slice of the plan, emits exactly the parent stream's record slice
// for those cells, and stamps a shard header: Fingerprint becomes the
// shard's sub-fingerprint, Parent records the full sweep's fingerprint,
// and ShardStart/ShardEnd bound the covered range. WithResume composes
// with WithShard (the checkpoint must carry the shard's fingerprint).
// Aging sweeps cannot be sharded: they compose two inner sweeps and emit
// joined records only at the end.
func WithShard(r ShardRange) RunOption { return func(o *runOpts) { o.shard = &r } }

// ShardFingerprint derives the deterministic sub-fingerprint identifying
// the [start, end) cell shard of the sweep with the given parent
// fingerprint. Equal shard fingerprints mean byte-identical shard record
// streams, the same contract parent fingerprints carry.
func ShardFingerprint(parent string, start, end int) string {
	in := struct {
		Format int
		Parent string
		Start  int
		End    int
	}{sweepFormat, parent, start, end}
	b, _ := json.Marshal(in)
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// PlanSize reports the plan cell count a Run*Context call with this kind,
// fleet and config would enumerate, without running anything - the bound
// a coordinator needs to split the plan into shard ranges. It resolves
// config defaults on a copy and multiplies the same plan axes the runner
// hands to newPlan, so it equals the runner's plan by construction. Aging
// has no single shardable plan (it composes two inner sweeps) and returns
// an error.
func PlanSize(kind Kind, fleet []*TestChip, cfg any) (int, error) {
	d, err := LookupKind(kind)
	if err != nil {
		return 0, err
	}
	return d.planSize(fleet, cfg)
}
