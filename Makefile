# Convenience targets; CI runs the same commands directly.

.PHONY: test short bench race ci bench-check golden fabric-chaos metrics-smoke

test:
	go build ./... && go test ./...

short:
	go test -short ./...

race:
	go test -race -short ./...

# bench records the hot-path benchmark trajectory in BENCH_<date>.json
# (op time, allocs/op, headline metrics). Run it before and after a perf
# change — repeated runs on one day append to the same file — so future
# PRs can see the curve. Tag data points with LABEL=..., e.g.
#   make bench LABEL=after-cellstate-cache
LABEL ?=
bench:
	go run ./tools/bench -label '$(LABEL)'

# bench-check is the regression tripwire CI runs: re-measure the recorded
# benchmark set briefly and fail only on order-of-magnitude (>3x)
# regressions against the newest committed BENCH_*.json. Noise at this
# margin means a fast path got disabled, not that a run was unlucky.
bench-check:
	go run ./tools/bench -check -benchtime 200ms

# golden runs the byte-identity contract at full scale: the pinned sweep
# digests, the checkpoint/resume byte-identity tests, the decode layer's
# encode->decode->re-encode round trips - JSONL and the columnar
# artifact - for every record type on every preset (guards
# internal/core's DecodeRecords and the columnar codec against drift),
# the sharded-execution golden (a sweep split across in-process
# workers must merge to the exact bytes of an uninterrupted local run),
# and the figure-artifact check (every CLI figure artifact, fig16
# included, prints what POST /query answers for its preset over the
# artifact's -out file).
golden:
	go test -count=1 -run 'TestGoldenSweepDigest|PresetMatrixGoldenDigest|ResumeByteIdentity|RoundTripByteIdentity|GoldenShardedByteIdentity|FigureArtifactsMatchQuery' ./...

# fabric-chaos runs the distributed-sweep failure-injection suite under
# the race detector: dropped connections, injected 5xx, torn shard
# streams, hung workers, shard jobs that end failed or checkpointed, and
# drained-worker resume, all asserting byte-identity of the merged
# output. Three runs, so a timing-dependent race fails rather than
# passing by luck.
fabric-chaos:
	go test -race -count=3 ./internal/fabric/ ./internal/serve/

# metrics-smoke boots a live hbmrdd, runs a tiny sweep through it, and
# asserts the /metrics Prometheus exposition is well-formed and moving
# (sweep/store/HTTP series with the expected values). CI runs it in the
# fabric-chaos job.
metrics-smoke:
	./tools/metrics-smoke.sh

# query-smoke runs a tiny sweep into a temp store, executes one query per
# aggregation reducer through the content-addressed query engine, and
# diffs the canonical output against the committed golden
# (tools/querysmoke/testdata/smoke.golden). Deliberate changes re-pin with
#   go run ./tools/querysmoke -update
query-smoke:
	go run ./tools/querysmoke

# ci mirrors the CI gate locally: format, vet, build, tests, perfbench's
# own checks, the race and fabric-chaos jobs (concurrent finalize, drain
# and live-tail code under -race), golden, query-smoke and bench-check.
# It leaves to CI the bench-smoke job and metrics-smoke, which boots a
# live hbmrdd.
ci:
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)
	go vet ./...
	go build ./...
	go test -short ./...
	cd perfbench && go vet ./... && go test ./...
	$(MAKE) race
	$(MAKE) fabric-chaos
	$(MAKE) golden
	$(MAKE) query-smoke
	$(MAKE) bench-check
