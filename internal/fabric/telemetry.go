package fabric

import (
	"hbmrd/internal/telemetry"
)

// Coordinator metrics. Handles resolve once at init; every update on
// the dispatch path is a plain atomic. All of it is out-of-band:
// nothing here touches shard payloads, headers, or the merged spool.
var (
	mShardsDispatched = telemetry.Default.Counter("hbmrd_fabric_shards_dispatched_total")
	mShardAttempts    = telemetry.Default.Counter("hbmrd_fabric_shard_attempts_total")
	mShardRetries     = telemetry.Default.Counter("hbmrd_fabric_shard_retries_total")
	mShardReattaches  = telemetry.Default.Counter("hbmrd_fabric_shard_reattaches_total")
	mShardFailures    = telemetry.Default.Counter("hbmrd_fabric_shard_failures_total")
	mQuarantines      = telemetry.Default.Counter("hbmrd_fabric_peer_quarantines_total")
	mReinstates       = telemetry.Default.Counter("hbmrd_fabric_peer_reinstates_total")
	mFetchBytes       = telemetry.Default.Counter("hbmrd_fabric_shard_fetch_bytes_total")
	mMergeBytes       = telemetry.Default.Counter("hbmrd_fabric_merge_bytes_total")
	mMergeFull        = telemetry.Default.Counter("hbmrd_fabric_merges_total", telemetry.L("outcome", "full"))
	mMergePartial     = telemetry.Default.Counter("hbmrd_fabric_merges_total", telemetry.L("outcome", "partial"))
	mMergeNone        = telemetry.Default.Counter("hbmrd_fabric_merges_total", telemetry.L("outcome", "none"))
)

func init() {
	telemetry.Default.Help("hbmrd_fabric_shards_dispatched_total", "Shards handed to the dispatch loop.")
	telemetry.Default.Help("hbmrd_fabric_shard_attempts_total", "Per-shard dispatch attempts, including the first.")
	telemetry.Default.Help("hbmrd_fabric_shard_retries_total", "Dispatch attempts after the first (attempt >= 2).")
	telemetry.Default.Help("hbmrd_fabric_shard_reattaches_total", "Retries that reattached to a shard already in flight on a worker.")
	telemetry.Default.Help("hbmrd_fabric_shard_failures_total", "Shards that exhausted their retry budget.")
	telemetry.Default.Help("hbmrd_fabric_peer_quarantines_total", "Workers quarantined after consecutive failures.")
	telemetry.Default.Help("hbmrd_fabric_peer_reinstates_total", "Quarantined workers reinstated by a healthz probe.")
	telemetry.Default.Help("hbmrd_fabric_shard_fetch_bytes_total", "Bytes read from workers' shard streams.")
	telemetry.Default.Help("hbmrd_fabric_merge_bytes_total", "Bytes written to merged spool files.")
	telemetry.Default.Help("hbmrd_fabric_merges_total", "Merge outcomes: full prefix, partial prefix (local resume), or none.")
}
