# Mirrors .github/workflows/ci.yml so local runs and CI stay identical.

GO ?= go

# Total-statement coverage gate: the seed measured 79.4%; a PR that
# drops below it removed tests faster than code.
COVER_MIN ?= 79.4

# Per-target budget for the fuzz smoke run.
FUZZTIME ?= 10s

# Seed for the fault-injection (chaos) suite: the whole fault schedule
# is drawn from it, so a failing run reproduces byte-identically with
# the seed it printed. Override to replay: make chaos CHAOS_SEED=12345
CHAOS_SEED ?= 20240807

# Paired benchmark runs (scripts/pair.sh): PAIR_PARENT against
# PAIR_CHANGE, PAIRS alternated runs per workload (every workload of
# BENCHMARK.json unless PAIR_WORKLOADS names some), checked out under
# PAIR_DIR. Smoke: make pair PAIRS=1 PAIR_WORKLOADS=warm_models PAIR_SECONDS=2
PAIR_PARENT ?= HEAD~1
PAIR_CHANGE ?= HEAD
PAIRS ?= 5
PAIR_DIR ?= $(or $(TMPDIR),/tmp)/t10-pairs

.PHONY: build test bench bench-race bench-smoke cover fuzz-smoke chaos lint fmt apicheck loc pair

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One iteration per benchmark: a smoke run proving the harness and every
# experiment still execute, not a measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Exercise the parallel, pruned cold-search path under the race detector
# (one iteration — correctness smoke, not a measurement), plus the
# serving soaks: 32 parallel mixed requests whose every 200 must carry a
# well-formed telemetry block, and the 2-chip sharded soak (concurrent
# CompileSharded partition searches sharing one compiler), and the
# admission paths t10 prices itself: cache probes answered at weight 0
# past a pool saturated with heavy cold compiles, an op, a model and a
# 2-chip model each priced cold, then at weight 0 warm, and 2- and
# 4-chip requests after a 1-chip compile charged for the cold stage
# searches they still run; a sharded request's stage list must name
# exactly the cold searches it runs. The work-
# counter guards ride along: Finish calls per filtered leaf, allocations
# per cold search, temporal-factor enumerations per distinct key and
# leaves finished (with the Pareto sizes) over a cold M5 pass,
# candidates kept on the bench op under the shipped and a calibrated
# fit and on the stress generation, allocations and Key calls per warm
# compile (and, priced on a shared pool, per warm search), allocations
# per Key, allocations per reconciliation against its greedy steps,
# placement proofs per plan lowered, and allocations
# per cached probe_op and probe_model through the t10serve handler are
# counts, so they read the same on a noisy runner. So does the digest
# of the Pareto plans a cold M5 pass selects, sequentially and under a
# three-worker pool: parallel selection checked under the race detector.
bench-race:
	$(GO) test -run='^$$' -bench='BenchmarkCompileOp|BenchmarkColdSearch' -benchtime=1x -race ./...
	$(GO) test -run='TestConvFinishPerFilteredCeiling|TestColdSearchAllocCeiling|TestFtChoiceEnumerationsPerKey|TestColdSearchFinishedCeiling|TestColdParetoDigest|TestColdSearchPricedCeiling|TestBigCoreColdSearchCeiling|TestWarmCompileAllocCeiling|TestKeyAllocFree|TestReconcileAllocsFlat|TestPlacementCheckedOncePerPlan|TestShardedListIsWhatRuns|TestShardedAdmissionPricesStages' -count=1 -race ./internal/search ./internal/interop ./t10
	$(GO) test -run='TestServeSoakUnderSharedBudget|TestServeShardedSoak|TestServeCheapTrafficUnderHeavyLoad|TestCompileFlowIsOneForEveryKind|TestProbeReplyAllocCeiling' -count=1 -race ./cmd/t10serve

# The repo benchmark (BENCHMARK.json + bench/) is a module of its own
# that replaces `repro` with this checkout, so `go build ./...` and
# `go test ./...` here never compile it: vet it and run its short tests
# (everything but the t10serve child) so an API change that breaks the
# harness fails the PR, not the next benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Total-statement coverage, gated against COVER_MIN so the trajectory
# never regresses past the seed.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/,"",$$3); print $$3 }'); \
	echo "total coverage: $$total% (gate >= $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% fell below the $(COVER_MIN)% gate"; exit 1; }

# Run every native fuzz target for FUZZTIME each (a crash smoke, not a
# campaign). -parallel 4: the default single worker starves on 1-CPU
# runners.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCompileRequest -fuzztime=$(FUZZTIME) -parallel=4 ./cmd/t10serve
	$(GO) test -run='^$$' -fuzz=FuzzReplyEncoding -fuzztime=$(FUZZTIME) -parallel=4 ./cmd/t10serve
	$(GO) test -run='^$$' -fuzz=FuzzModelRoundTrip -fuzztime=$(FUZZTIME) -parallel=4 ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzFuseGraph -fuzztime=$(FUZZTIME) -parallel=4 ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzPrefixPadding -fuzztime=$(FUZZTIME) -parallel=4 ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLeafScreen -fuzztime=$(FUZZTIME) -parallel=4 ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzWorkFloor -fuzztime=$(FUZZTIME) -parallel=4 ./internal/costmodel
	$(GO) test -run='^$$' -fuzz=FuzzValidatePlacement -fuzztime=$(FUZZTIME) -parallel=4 ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSignature -fuzztime=$(FUZZTIME) -parallel=4 ./internal/expr
	$(GO) test -run='^$$' -fuzz=FuzzKey -fuzztime=$(FUZZTIME) -parallel=4 ./internal/search
	$(GO) test -run='^$$' -fuzz=FuzzSearchEquivalence -fuzztime=$(FUZZTIME) -parallel=4 ./internal/search
	$(GO) test -run='^$$' -fuzz=FuzzReconcile -fuzztime=$(FUZZTIME) -parallel=4 ./internal/interop
	$(GO) test -run='^$$' -fuzz=FuzzPartitionSearch -fuzztime=$(FUZZTIME) -parallel=4 ./internal/scaleout

# Fault-injection suite under the race detector: the harness itself,
# the remote plan-cache tier (breakers, retries, timeouts) and the fleet
# soak, driven through a seeded chaostest.Transport so the schedule of
# resets / 5xx / stalls / corrupted payloads is reproducible.
chaos:
	T10_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -run='Chaos|Fleet|Remote|Breaker|Plans' \
		-count=1 -race ./internal/plancache/chaostest ./internal/plancache ./cmd/t10serve

# Public-API surface check: compile and run the build-tag-gated t10
# surface test, which pins every exported symbol, so accidental API
# breakage fails CI before it reaches a downstream user. (go vet ./... runs in the lint target; CI
# runs both, vetting once.)
apicheck:
	$(GO) test -tags apicheck -run TestAPICheck -count=1 ./t10

# lint also fails when a native fuzz target (func Fuzz… in any
# _test.go) has no -fuzz line for its package in fuzz-smoke: a target
# left out of the smoke run would never execute in CI.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@smoke="$$($(MAKE) -s -n fuzz-smoke)"; missing=""; \
	for hit in $$(grep -rHoE '^func Fuzz[[:alnum:]_]+' --include='*_test.go' . | sed 's/:func /:/'); do \
		name="$${hit#*:}"; dir="$$(dirname "$${hit%%:*}")"; \
		printf '%s\n' "$$smoke" | grep -qE -- "-fuzz=$$name .* $$dir\$$" || missing="$$missing $$dir:$$name"; \
	done; \
	if [ -n "$$missing" ]; then echo "fuzz targets missing from fuzz-smoke:$$missing"; exit 1; fi

fmt:
	gofmt -w .

# Non-test Go lines outside bench/: the program size the simplicity aim
# tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l

# Paired, alternated benchmark runs of two commits with medians, the
# parent's quartiles, the change-ahead count and each bound's verdict;
# appends one line per workload to BENCH_pairs.jsonl.
pair:
	bash scripts/pair.sh -p $(PAIR_PARENT) -c $(PAIR_CHANGE) -n $(PAIRS) \
		$(if $(PAIR_WORKLOADS),-w $(PAIR_WORKLOADS)) $(if $(PAIR_SECONDS),-s $(PAIR_SECONDS)) $(PAIR_DIR)
