package query

import (
	"time"

	"hbmrd/internal/telemetry"
)

// Query-engine metrics. Run (the served path) is instrumented; RunCold
// is the equivalence checks' cache-bypassing entry and stays out of the
// series so test traffic does not pollute hit-rate math.
var (
	mQueryRuns     = telemetry.Default.Counter("hbmrd_query_runs_total")
	mCacheHits     = telemetry.Default.Counter("hbmrd_query_cache_hits_total")
	mCacheMisses   = telemetry.Default.Counter("hbmrd_query_cache_misses_total")
	mColumnarDrops = telemetry.Default.Counter("hbmrd_query_columnar_quarantines_total")
	mQuerySeconds  = telemetry.Default.Histogram("hbmrd_query_seconds", telemetry.DurationBuckets)
)

func init() {
	telemetry.Default.Help("hbmrd_query_runs_total", "Queries answered by Engine.Run (cache hits and misses).")
	telemetry.Default.Help("hbmrd_query_cache_hits_total", "Queries answered from the derived cache.")
	telemetry.Default.Help("hbmrd_query_cache_misses_total", "Queries that recomputed from stored sweep bytes.")
	telemetry.Default.Help("hbmrd_query_columnar_quarantines_total", "Corrupt columnar twins dropped (and rebuilt) on the query cold path.")
	telemetry.Default.Help("hbmrd_query_seconds", "Engine.Run wall time, hits and misses together.")
}

// observe records one completed Run.
func (e *Engine) observe(start time.Time, cspec Spec, res *Result) {
	mQueryRuns.Inc()
	if res.CacheHit {
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	mQuerySeconds.Observe(time.Since(start).Seconds())
	if e.Trace != nil {
		e.Trace.Emit(cspec.Sweep, "query", start,
			"source", res.Source, "cache_hit", res.CacheHit)
	}
}
