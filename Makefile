GO ?= go

# RACE_PKGS is the race target's package list. Everything: the hand-picked
# fast-path list it used to be kept missing new packages by default, and the
# detector's cost on the non-concurrent remainder is noise.
RACE_PKGS = ./...

.PHONY: ci fmt vet build test purego race smoke chaos paper bench-check bench-compare fuzz-smoke xval loc

# ci is the tier-1 gate: formatting, vet, build, tests.
ci: fmt vet build test

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# vet runs the standard vet suite, then the project's own analyzers
# (cmd/amop-vet: budgetpair, scratchpair, atomiccounter, nakedgo,
# lockedsolve). Both must be clean.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/amop-vet ./...

# fuzz-smoke is the CI fuzz-smoke job: every fuzz target gets a short fixed
# budget — enough to shake out parser/merge and fast-vs-naive pricer
# regressions on every CI run without turning the job into a fuzzing
# campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseContractRow -fuzztime=10s ./internal/cliutil/
	$(GO) test -run='^$$' -fuzz=FuzzTickMerge -fuzztime=10s ./cmd/amop-serve/
	$(GO) test -run='^$$' -fuzz=FuzzForwardInverseRoundTrip -fuzztime=10s ./internal/fft/
	$(GO) test -run='^$$' -fuzz=FuzzEvolveCone -fuzztime=10s ./internal/linstencil/
	$(GO) test -run='^$$' -fuzz=FuzzBSMPutFast -fuzztime=10s ./internal/bsm/
	$(GO) test -run='^$$' -fuzz=FuzzFast -fuzztime=10s ./internal/bopm/
	$(GO) test -run='^$$' -fuzz=FuzzFast -fuzztime=10s ./internal/topm/
	$(GO) test -run='^$$' -fuzz=FuzzObstacleOneSided -fuzztime=10s ./stencil/

build:
	$(GO) build ./...

# loc prints the non-test and test Go line counts of the tracked files
# outside bench/ (its own module), the figures each CHANGES.md entry reports.
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test     $$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$$' | xargs cat | wc -l)"

test:
	$(GO) test ./...

# purego is the CI cross-compile job's test step: the whole suite with
# the AVX2 assembly compiled out, so the generic split-plane butterflies (the
# kernel on every non-AVX2 target) carry every FFT.
purego:
	$(GO) test -tags amop_purego ./...

# race is the CI race job. The scratch pools repeat 20 times: under -race sync.Pool drops
# Puts at random, so a pool test that leans on retention fails here instead
# of flaking later. The spawn budget repeats 20 times too: its token
# hand-offs between exiting workers and blocked joiners race by design.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=20 ./internal/scratch
	$(GO) test -race -count=20 ./internal/par

# smoke mirrors the CI benchmarks job (minus govulncheck, which downloads
# its tool): every Go benchmark runs one iteration, so none can bit-rot.
# Timing is not judged here; bench-compare does that.
smoke: vet
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# xval is the CI xval job: the pinned-seed cross-validation soak of the
# fast lattice pricers against their quadratic baselines and the analytic
# tier against the Richardson-extrapolated lattice, streaming NDJSON
# worst-offender lines to xval-report.ndjson.
xval:
	$(GO) run ./cmd/amop-xval -trials 100 -maxT 1500 -seed 7 -tol 1e-9 \
		-analytic-trials 30 -analytic-tol 1e-6 -budget 0 \
		-report xval-report.ndjson

# AMOP_BENCH is cmd/amop-bench made by go build, not go run: only a built
# binary's build info carries vcs.revision, the commit its records name.
AMOP_BENCH = .paper/amop-bench
.PHONY: $(AMOP_BENCH)
$(AMOP_BENCH):
	$(GO) build -o $@ ./cmd/amop-bench

# chaos is the CI chaos-smoke job: the fault-injected robustness tests
# (breaker lifecycle, quarantine, canceled flights, the chaos replay) under
# the race detector, and the serve-chaos harness experiment (availability +
# degraded-mode accounting under injected solver panics and slowdowns,
# recorded to BENCH_chaos.json).
CHAOS_RECORD = $(AMOP_BENCH) -experiment serve-chaos -maxT 1024 -json BENCH_chaos.json
chaos: $(AMOP_BENCH)
	$(GO) test -race -count=1 -run 'TestServerBreakerLifecycle|TestServerQuarantineAndRecovery|TestServerQuoteCtxCanceledMidFlight|TestPriceBatchPanicIsolationRestoresBudget|TestScenarioSweepCtxCancelMidRun|TestServeChaosSmoke' .
	$(CHAOS_RECORD)

# paper regenerates the two committed records: BENCH_chaos.json and
# BENCH_paper.json, the paper's performance claims at bounded sizes (Figure
# 5, Tables 2 and 5, and the base-case and tile ablation). Each timed cell
# is the median of five half-second testing.Benchmark runs, with its IQR;
# each record names the machine and the commit, so run it on a clean tree.
# About three minutes on 2 CPUs. Not a perf gate: that is bench-compare.
paper: $(AMOP_BENCH)
	$(CHAOS_RECORD)
	$(AMOP_BENCH) -experiment fig5a,fig5b,fig5c,table2,table5,ablation -maxT 16384 -maxQuadT 8192 -json BENCH_paper.json

# bench-check covers the seeded benchmark in bench/, a module of its own
# that `go test ./...` and `vet` at the root do not reach: its tests, go vet
# and the project analyzers. Mirrors the CI bench-check step.
bench-check:
	cd bench && $(GO) test . && $(GO) vet . && $(GO) run github.com/nlstencil/amop/cmd/amop-vet ./...

# bench-compare is the perf gate the CI perf job runs: the seeded benchmark
# on BASE (default: the merge-base with origin/main) and on HEAD, alternating
# on this machine, judged by bench/'s --compare rule. BENCH_SEEDS and
# BENCH_SECONDS size it (see the script).
BASE ?= $(shell git merge-base HEAD origin/main 2>/dev/null || echo HEAD~1)
bench-compare:
	bash scripts/bench-compare.sh $(BASE) HEAD
