# Development targets. CI (.github/workflows/ci.yml) runs exactly these, so
# a green `make check` locally means a green gate.

GO ?= go
FUZZTIME ?= 10s
# Seed budget for the deterministic fault-injection sweep (faults target).
FAULTSEEDS ?= 1,2,3,4,5,6,7,8

# Epoch target for the churn gate (churn target).
CHURN_EPOCHS ?= 1000

# Seed budget for the poly-vs-brute differential verification gate
# (verify-diff target): 60 seeds x 6 profiles x 3 sizes = 1080 instances,
# each checked for k in 1..3 by both backends.
VERIFY_DIFF_SEEDS ?= 60

.PHONY: build test race vet lint fuzz-short faults obs serve-test cache-test churn crash verify-diff batch bench-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# syrep-lint runs go vet itself unless -no-vet is given; keep the two targets
# separate so `make lint` reports only the custom analyzers. The run applies
# the reviewed suppression baseline (lint.suppress), so only new findings
# fail, and leaves behind lint.sarif (code-scanning report) and
# lint-metrics.json (per-analyzer syrep_lint_* timing counters) as
# artifacts.
lint:
	$(GO) run ./cmd/syrep-lint -no-vet -suppress lint.suppress -sarif lint.sarif -metrics-json lint-metrics.json ./...

# The go tool rejects -fuzz patterns matching more than one target, so each
# fuzzer gets its own invocation.
fuzz-short:
	$(GO) test ./internal/bdd -fuzz=FuzzMk -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bdd -fuzz=FuzzApplyGC -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/verify/poly -fuzz=FuzzPolyVerify -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -fuzz=FuzzDelivers -fuzztime=$(FUZZTIME)

# Deterministic fault-injection sweep under the race detector: the full
# matrix (every fault point x kind x strategy) plus a seed-driven sample,
# with the goroutine-leak check active. Widen coverage with
# FAULTSEEDS=1,2,...,N.
faults:
	SYREP_FAULT_SEEDS=$(FAULTSEEDS) $(GO) test -race -run 'TestFaultMatrix|TestSeededFaults|TestCancellationLatencyBounded' ./internal/resilience/...

# Observability gate under the race detector: the obs package itself (hammer
# + zero-alloc + golden exports), the parallel-vs-sequential differential
# verification suite, and the pipeline-level span/counter consistency tests.
obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'TestDifferential|TestParallelMaxFailures|TestVerifyCounters' ./internal/verify/
	$(GO) test -race -run 'Observed|TestObserve' ./internal/resilience/ ./internal/bdd/ ./internal/benchmark/

# Synthesis-service gate under the race detector: admission/retry/breaker
# unit tests, the chaos trichotomy (retry -> degrade -> recover), graceful
# drain, and the syrep-serve binary's boot/drain lifecycle.
serve-test:
	$(GO) test -race ./internal/server/... ./cmd/syrep-serve

# Synthesis-cache gate under the race detector: eviction/TTL/singleflight
# units, the warm-vs-cold differential suite (adapted seeds must reach the
# same resilience verdict as cold synthesis), and the server's cache
# hit/dedup/warm-start integration tests.
cache-test:
	$(GO) test -race ./internal/cache/...
	$(GO) test -race -run 'TestCache|TestWarmStart|TestMemoryPressure' ./internal/server/

# Churn-controller gate under the race detector: the controller unit and
# lifecycle tests plus the full-scale Poisson churn simulation (CHURN_EPOCHS
# topology epochs, seeded), writing the event-latency SLO histogram artifact
# to BENCH_churn_slo.json. The default `go test` run uses a reduced epoch
# target; this target drives the full one.
churn:
	$(GO) test -race ./internal/controller/ ./cmd/syrep-ctl
	SYREP_CHURN_EPOCHS=$(CHURN_EPOCHS) SYREP_CHURN_OUT=$(CURDIR)/BENCH_churn_slo.json \
		$(GO) test -race -run TestChurnSimulation -count=1 -v ./internal/controller/

# Crash-recovery gate under the race detector: journal + crashfs units, the
# controller recovery suite, and the full kill matrix — a process kill at
# every journaled filesystem operation across three seeds, plus the
# double-crash (kill during recovery) cells — each cell differentially
# checked against a no-crash oracle. Writes the recovery-differential
# summary to BENCH_crash_matrix.json.
crash:
	$(GO) test -race ./internal/journal/...
	SYREP_CRASH_MATRIX=full SYREP_CRASH_OUT=$(CURDIR)/BENCH_crash_matrix.json \
		$(GO) test -race -run 'TestCrash|TestRecover|TestPusherWatermark|TestJournalFailure|TestResyncPoison' -count=1 ./internal/controller/

# Verification-backend differential gate under the race detector: the
# poly checker against the brute-force oracle on randomized corrupted
# multigraphs (topozoo + parallel-edge + bounce modes, seed-keyed
# reproduction), the counterexample-guided solver against the eager
# encoding (same filled tables, same unrepairable verdicts, cancellation
# never swallowed), plus a short run of the brute-oracle fuzz target.
verify-diff:
	SYREP_VERIFY_DIFF_SEEDS=$(VERIFY_DIFF_SEEDS) $(GO) test -race -run 'TestDifferential|TestPoly|TestFailingOrder|TestResilientCtxFirst' -count=1 ./internal/verify/ ./internal/verify/poly/
	$(GO) test -race -run 'TestLazy|TestSolveNeverSwallowsCancellation|TestDelivers' -count=1 ./internal/encode/ ./internal/trace/
	$(GO) test ./internal/verify/poly -fuzz=FuzzPolyVerify -fuzztime=$(FUZZTIME)

# All-destinations batch gate under the race detector: the batch
# differential suite (SynthesizeAll destination-for-destination equal to N
# sequential runs), manager-pool determinism, singleflight leader-abort
# re-election, the Submit burst accounting regression, and the NDJSON
# endpoint — then the batch-vs-sequential benchmark, writing the comparison
# rows to BENCH_all_dests.json.
batch:
	$(GO) test -race -run 'TestSynthesizeAll|TestShared|TestPool|TestReset|TestSingleflight|TestSubmitBurst|TestHTTPSynthesizeAll' ./internal/resilience/ ./internal/reduce/ ./internal/bdd/ ./internal/cache/ ./internal/server/
	$(GO) run ./cmd/syrep-bench -fig alldests -alldests-json $(CURDIR)/BENCH_all_dests.json

# Benchmark smoke test: perfbench/ is a Go module of its own, so the root
# `go test ./...` never reaches it. Runs a tiny version of every workload,
# untraced and traced, with its correctness checks and metric listing.
bench-smoke:
	$(GO) -C perfbench test ./...

check: build vet lint test race faults obs serve-test cache-test churn crash verify-diff batch bench-smoke
