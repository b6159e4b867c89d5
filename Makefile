GO ?= go

.PHONY: all check vet staticcheck build test race session-stress session-smoke crowd-stress store-stress perfbench-test loadgen-smoke bench bench-smoke bench-record fuzz-smoke emit-golden emit-golden-update agg-golden fmt

all: check

# check is the CI gate: vet + staticcheck, build everything, run the
# tests with the race detector (the concurrency stress tests depend on
# it), verify the per-backend golden emissions and the analytic path,
# hammer the dialogue-session subsystem a few extra rounds, vet and test
# the benchmark module, then smoke the serving layer with a short
# load-generator run.
check: vet staticcheck build race emit-golden agg-golden session-stress crowd-stress store-stress perfbench-test loadgen-smoke

vet:
	$(GO) vet ./...

# staticcheck gates CI (the workflow installs it); locally it is skipped
# with a notice when the binary is absent, so offline machines can still
# run `make check`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# session-stress repeats the dialogue-session concurrency and
# goroutine-leak tests under the race detector: interleaved answers,
# expiry, eviction and 100 abandoned sessions.
session-stress:
	$(GO) test -race -count=3 -run 'TestSessionStress|TestAbandonedSessionsLeakNoGoroutines|TestConcurrentAnswersOneSession' ./internal/session/

# crowd-stress exercises the crowd-scale subsystem under the race
# detector: the streaming queue and sequential sampler (including the
# cancellation/goroutine-leak and backpressure tests), the engine
# wiring, and the corpus-wide differential against the exhaustive
# engine.
crowd-stress:
	$(GO) test -race ./internal/crowdscale/ ./internal/crowd/
	$(GO) test -race -run TestCrowdScaleDifferentialCorpus .

# store-stress hammers the epoch-snapshot store under the race
# detector: concurrent writers publishing epochs while readers hold and
# render old snapshots, the randomized sharded-vs-flat differential,
# and the cache-invalidation epoch tests on top of it.
store-stress:
	$(GO) test -race -count=3 -run 'TestShardedSnapshotStableUnderConcurrentPublish|TestShardedOldSnapshotSurvivesDeleteAll|TestShardedDifferentialFlat' ./internal/rdf/
	$(GO) test -race -run 'TestDataEpochInvalidatesCachedPlans|TestDeletedEntityNeverResurrectedFromCache' ./internal/core/

# perfbench-test vets and tests the benchmark in perfbench/, its own Go
# module that the root `go test ./...` never builds, so a library change
# that breaks the benchmark fails the gate.
perfbench-test:
	cd perfbench && GOWORK=off GOFLAGS= $(GO) vet ./...
	cd perfbench && GOWORK=off GOFLAGS= $(GO) test ./...

# session-smoke curls a live daemon through one scripted dialogue
# (requires curl and jq).
session-smoke:
	./scripts/session_smoke.sh

# loadgen-smoke drives a short repeated-question workload through
# cmd/loadgen against a locally started daemon and asserts nonzero
# throughput, zero errors and a warm plan cache (requires jq).
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# bench-record runs the P-series benches plus a full loadgen run and
# writes today's BENCH_<date>.json perf record (requires jq).
bench-record:
	./scripts/bench_record.sh

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke runs every benchmark once so bench code cannot silently
# rot; it measures nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# emit-golden checks every supported corpus question against the
# per-backend golden emission files (testdata/golden_*.txt) and runs the
# SQL-vs-RDF differential; emit-golden-update regenerates the files
# after an intentional emitter change.
emit-golden:
	$(GO) test -run 'TestBackendGolden|TestGoldenQueriesByteIdentical|TestCorpusSQLDifferential' .

emit-golden-update:
	$(GO) test -run TestBackendGolden -update .

# agg-golden pins the aggregate/analytic path: the SPARQL parser and
# evaluator unit tests (GROUP BY, COUNT/SUM/AVG/MIN/MAX, typed HAVING,
# numeric ORDER BY) plus the public end-to-end superlative question.
agg-golden:
	$(GO) test -run 'TestParseAggregate|TestEvalOrderNumeric|TestEvalGroupBy|TestEvalSuperlative|TestEvalHaving|TestEvalAggregate|TestAggregateValidate|TestProgrammaticHaving' ./internal/sparql/
	$(GO) test -run 'TestPublicAggregateEndToEnd|TestCorpusSQLDifferential' .

# fuzz-smoke runs each native fuzz target briefly: enough to catch
# panics and invariant regressions without slowing the gate. Go allows
# one -fuzz pattern per package invocation, hence two runs.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/nlp/
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/sparql/

fmt:
	gofmt -l -w .
