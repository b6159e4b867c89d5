GO ?= go

.PHONY: all check vet staticcheck build test race session-stress session-smoke crowd-stress store-stress perfbench-test bench-trace-smoke loadgen-smoke bench bench-smoke bench-ab bench-ab-smoke fuzz-smoke emit-golden emit-golden-update agg-golden fmt

all: check

# check is the CI gate: vet + staticcheck, build everything, run the
# tests with the race detector (the concurrency stress tests depend on
# it), verify the per-backend golden emissions and the analytic path,
# hammer the dialogue-session subsystem a few extra rounds, vet and test
# the benchmark module and run its traced stretches, then smoke the
# serving layer with a short load-generator run.
check: vet staticcheck build race emit-golden agg-golden session-stress crowd-stress store-stress perfbench-test bench-trace-smoke loadgen-smoke

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
# expiry, eviction, 100 abandoned sessions, and 500 sessions whose
# completion must be counted by the time Done closes.
session-stress:
	$(GO) test -race -count=3 -run 'TestSessionStress|TestAbandonedSessionsLeakNoGoroutines|TestConcurrentAnswersOneSession|TestCompletionCountedBeforeDone' ./internal/session/

# crowd-stress repeats the crowd executor and engine tests under the
# race detector: the call-scoped fan-out and its goroutine-return tests
# (normal and cancelled calls), the write-back of sampling states under
# concurrent calls and Reset, the sequential sampler, the engine wiring,
# and the corpus-wide differential against the exhaustive engine.
crowd-stress:
	$(GO) test -race -count=3 ./internal/crowdscale/ ./internal/crowd/
	$(GO) test -race -run TestCrowdScaleDifferentialCorpus .

# store-stress hammers the epoch-snapshot store under the race
# detector: concurrent writers publishing epochs while readers hold and
# render old snapshots, the randomized differential of 1-8 shards
# against a naive oracle, views pinned across registrations, and on top
# of it the plan cache across writes, registrations and recorded
# disambiguation feedback: the randomized cached-vs-cold differential,
# concurrent readers against a writer flipping the Buffalo ranking by
# store batches, against one recording Buffalo choices and against one
# registering aliases and relation lemmas, a write and a choice landing
# mid-translation, the epoch, feedback, alias and relation tests, and a
# filler changing its result while exact hits copy the entry.
store-stress:
	$(GO) test -race -count=3 -run 'TestShardedSnapshotStableUnderConcurrentPublish|TestShardedOldSnapshotSurvivesDeleteAll|TestShardedDifferentialOracle' ./internal/rdf/
	$(GO) test -race -run 'TestPinnedViewIgnoresLaterRegistrations' ./internal/ontology/
	$(GO) test -race -run 'TestDataEpochInvalidatesCachedPlans|TestFeedbackDropsOnlyThePlansItChanges|TestDeletedEntityNeverResurrectedFromCache|TestAliasInvalidatesCachedPlans|TestRelationInvalidatesCachedPlans|TestRegistrationsRaceCachedTranslations|TestTranslationReadsOneEpoch|TestFeedbackRecordedMidFillReplaysNextRequest|TestCacheServesColdAcrossWrites|TestCacheConcurrentWritesServeTheirEpoch|TestCacheConcurrentChoicesServeAReading|TestCacheFillRace' ./internal/core/

# perfbench-test vets and tests the benchmark in perfbench/, its own Go
# module that the root `go test ./...` never builds, so a library change
# that breaks the benchmark fails the gate.
perfbench-test:
	cd perfbench && GOWORK=off GOFLAGS= $(GO) vet ./...
	cd perfbench && GOWORK=off GOFLAGS= $(GO) test ./...

# bench-trace-smoke runs a 2-second traced stretch of the two workloads
# whose traced runs check stage coverage (translate-cold: the stage spans
# must cover 90% of Translate; execute-crowd: the WHERE and SATISFYING
# spans 90% of Execute). It fails when a run exits non-zero or its last
# line, the JSON report, lacks "correct":true.
bench-trace-smoke:
	mkdir -p .bench_build/trace-smoke
	@for w in translate-cold execute-crowd; do \
		out=.bench_build/trace-smoke/$$w.txt; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 >$$out || { cat $$out; echo "bench-trace-smoke: $$w exited non-zero"; exit 1; }; \
		tail -n 1 $$out | grep -q '"correct":true' || { cat $$out; echo "bench-trace-smoke: $$w report is not correct"; exit 1; }; \
		grep '^coverage' $$out | sed "s/^/$$w: /"; \
	done

# session-smoke curls a live daemon through one scripted dialogue
# (requires curl and jq).
session-smoke:
	./scripts/session_smoke.sh

# loadgen-smoke drives a short repeated-question workload through
# cmd/loadgen against a locally started daemon and asserts nonzero
# throughput, zero errors and a warm plan cache (requires jq).
loadgen-smoke:
	./scripts/loadgen_smoke.sh

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke runs every benchmark once so bench code cannot silently
# rot; it measures nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# bench-ab compares the benchmark at a parent revision with the working
# tree (scripts/bench_ab.sh): PAIRS alternating pairs of RUN_SECONDS-second
# runs per workload on fresh seeds, then per end-to-end metric each
# side's median and quartiles, the change's wins and the verdict against
# the metric's bound in BENCHMARK.json. WORKLOADS defaults to all.
PAIRS ?= 10
RUN_SECONDS ?= 20
WORKLOADS ?=
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev> [PAIRS=10] [RUN_SECONDS=20] [WORKLOADS=translate-cold]"; exit 2; }
	bash scripts/bench_ab.sh $(PARENT) $(PAIRS) $(RUN_SECONDS) $(WORKLOADS)

# bench-ab-smoke runs scripts/bench_ab.sh once, HEAD against HEAD (one pair of
# 1-second translate-cold runs), and checks that it prints one verdict
# row per end-to-end metric; it measures nothing.
bench-ab-smoke:
	mkdir -p .bench_build/ab
	bash scripts/bench_ab.sh HEAD 1 1 translate-cold >.bench_build/ab/smoke.txt || { cat .bench_build/ab/smoke.txt; exit 1; }
	cat .bench_build/ab/smoke.txt
	@want=$$(awk '/"end_to_end"/ { on = 1; next } on && /^[[:space:]]*\]/ { exit } on && /"name"/ { n++ } END { print n }' BENCHMARK.json); \
	got=$$(grep -cE '^verdict translate-cold .* (ok|WORSE) \(' .bench_build/ab/smoke.txt || true); \
	if [ "$$got" != "$$want" ]; then echo "bench-ab-smoke: $$got verdict rows, want $$want"; exit 1; fi

# emit-golden checks every supported corpus question against the
# per-backend golden emission files (testdata/golden_*.txt), runs the
# SQL-vs-RDF differential, and compares the output of cmd/experiments
# (cmd/experiments/testdata/experiments.txt), the GET /api/backends
# body (cmd/nl2cmd/testdata/api_backends.json) and two sessions' GET
# /api/session/{id}/explain bodies (cmd/nl2cmd/testdata/explain.json)
# with their golden files; emit-golden-update regenerates the golden
# files after an intentional change. The package list precedes -update, a flag go test passes to
# the test binaries.
emit-golden:
	$(GO) test -run 'TestBackendGolden|TestCorpusSQLDifferential' .
	$(GO) test -run 'TestExperimentsGolden|TestAPIBackendsGolden|TestSessionExplainGolden' ./cmd/experiments/ ./cmd/nl2cmd/

emit-golden-update:
	$(GO) test -run 'TestBackendGolden|TestExperimentsGolden|TestAPIBackendsGolden|TestSessionExplainGolden' . ./cmd/experiments/ ./cmd/nl2cmd/ -update

# agg-golden pins the analytic path, which is COUNT only: the
# evaluator's grouping tests (GROUP BY, COUNT($v) over bound rows, the
# empty global group, numeric ORDER BY), its differential against the
# reference evaluator's own grouping, and the pattern grammar's COUNT
# calls; the OASSIS-QL analytic grammar (rejections with line positions,
# derived aliases, the print and parse round trip, Validate, and Parse's
# refusal of HAVING, SUM/AVG/MIN/MAX, COUNT(*), a subclause FILTER, the
# WHERE filters the evaluator cannot run (a function call such as
# STRLEN, POS or SUM, IN or NOT IN a named vocabulary, a variable no
# WHERE triple binds) and every query Validate refuses); plus the public
# end-to-end superlative question.
agg-golden:
	$(GO) test -run 'TestParseAggregate|TestEvalOrderNumeric|TestEvalGroupBy|TestEvalSuperlative|TestEvalAggregate|TestDifferentialEvalMatchesReference' ./internal/sparql/
	$(GO) test -run 'TestParseAggregate|TestAggregateRoundTrip|TestAggregateValidate|TestParseRefusals' ./internal/oassisql/
	$(GO) test -run 'TestPublicAggregateEndToEnd|TestCorpusSQLDifferential' .

# fuzz-smoke runs each native fuzz target briefly: enough to catch
# panics and invariant regressions without slowing the gate. Go fuzzes
# one target per invocation, so each line names one, anchored so that
# it matches no other target of its package.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=20s ./internal/nlp/
	$(GO) test -fuzz='^FuzzTokenize$$' -fuzztime=20s ./internal/nlp/
	$(GO) test -fuzz='^FuzzRebindGuard$$' -fuzztime=20s ./internal/nlp/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=20s ./internal/sparql/
	$(GO) test -fuzz='^FuzzNTriplesRoundTrip$$' -fuzztime=20s ./internal/rdf/
	$(GO) test -fuzz='^FuzzNormalize$$' -fuzztime=20s ./internal/ontology/
	$(GO) test -fuzz='^FuzzCanonicalize$$' -fuzztime=20s ./internal/qcache/
	$(GO) test -fuzz='^FuzzRebind$$' -fuzztime=20s ./internal/core/
	$(GO) test -fuzz='^FuzzFind$$' -fuzztime=20s ./internal/ix/
	$(GO) test -fuzz='^FuzzParsePatterns$$' -fuzztime=20s ./internal/ix/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=20s ./internal/oassisql/
	$(GO) test -fuzz='^FuzzCheck$$' -fuzztime=20s ./internal/interact/

fmt:
	gofmt -l -w .
