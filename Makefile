GO ?= go
BENCHTIME ?= 0.3s
BENCHCOUNT ?= 3
MAXREGRESS ?= 0.20
# Memory gates: B/op and allocs/op regressions fail independently of
# the time gate. Allocation counts are deterministic, so these can stay
# tight even on noisy shared runners.
MAXBYTESREGRESS ?= $(MAXREGRESS)
MAXALLOCSREGRESS ?= $(MAXREGRESS)
FUZZTIME ?= 30s
OUT ?= out
BENCH_STAMP := $(shell date +%Y%m%d-%H%M%S)

# Per-package coverage floors enforced by `make cover`, as
# package:percent pairs. The stage engine decides what work an
# incremental redesign may skip; obs and faults feed the manifests and
# degradation accounting; hypo decides experiment verdicts; serve is
# the overload/degradation surface exposed to clients; route owns the
# arena-pooled A* hot path whose scratch reuse must stay invisible;
# stage/cas is the persistence layer whose corruption handling must
# never regress to an error path; mlfit grows the crosstalk forests
# whose bits every design depends on; experiments holds the pipeline's
# node table, whose key, skip and run functions every design runs.
COVER_FLOORS ?= internal/stage:90 internal/stage/cas:85 internal/obs:85 internal/faults:85 internal/hypo:85 internal/serve:85 internal/route:80 internal/sim:85 internal/mlfit:85 internal/experiments:85

# sim-full knobs: the nightly long-form run replays the defect-storm
# workload scaled into overload for SIMDURATION of virtual time.
SIMSCALE ?= 4
SIMDURATION ?= 300s

.PHONY: build vet perfbench-vet perfbench-check fmt-check lint test race race-faults fuzz bench bench-smoke bench-profile faults cover verify serve-smoke workload-smoke sim-full experiments experiments-smoke experiments-full ab h1-rate clean

# Generated run products (bench logs, coverage profiles, manifests) all
# land under $(OUT), which is ignored wholesale; the committed
# BENCH_baseline.json stays at the repository root.
$(OUT):
	mkdir -p $(OUT)

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench is its own module (a local replace of this one, so it needs
# no network); vetting and building it catches a public-API change that
# breaks the benchmark harness. The build discards its binary.
perfbench-vet:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

# Runs the end-to-end benchmark once per workload at seed $(SEED),
# traced, and fails when a check fails (request and design digests,
# the oracle, cost reduction, or tenant-churn's per-stage [runs hits
# misses disk] counts pinned in perfbench/expected.json). A workload
# whose only failed check is the generator's lag, a stalled host, runs
# once more (scripts/perfbench_check.sh).
perfbench-check:
	./scripts/perfbench_check.sh $(SEED)

# Fails (listing the files) when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full static pass: vet + formatting + staticcheck. CI installs a
# pinned staticcheck; locally it is skipped with a note when absent.
lint: vet fmt-check
	@if command -v staticcheck > /dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

test:
	$(GO) test ./...

# The determinism contract is only meaningful if the parallel stages are
# also race-free; -race runs as its own CI matrix task so it never
# serializes behind the plain test pass.
race:
	$(GO) test -race ./...

# Focused race pass over the fault-injection, cancellation and context
# plumbing — the code most likely to regress under concurrency.
race-faults:
	$(GO) test -race -count=1 -run 'Fault|Defect|Ctx|Cancel|Deadline' ./internal/parallel ./internal/faults ./internal/crosstalk ./internal/experiments

fuzz:
	$(GO) test ./internal/fdm -run NONE -fuzz FuzzGroupAllocate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run NONE -fuzz FuzzPlanExclusion -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stage -run NONE -fuzz FuzzArtifactKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stage/cas -run NONE -fuzz FuzzCASHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stage/cas -run NONE -fuzz FuzzCASGet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hypo -run NONE -fuzz FuzzExperimentSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run NONE -fuzz FuzzTraceDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mlfit -run NONE -fuzz FuzzForestDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mlfit -run NONE -fuzz FuzzPresortedTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mlfit -run NONE -fuzz FuzzKFoldMSEShared -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parallel -run NONE -fuzz FuzzSeededSource -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiments -run NONE -fuzz FuzzCharacterizationCodec -fuzztime $(FUZZTIME)

# The benchmark-regression trajectory: run the full suite with
# allocation reporting, snapshot it as $(OUT)/BENCH_<stamp>.json, and
# gate on the committed baseline — time (ns/op), memory (B/op) and
# allocation count (allocs/op) each against their own tolerance, and a
# baseline benchmark missing from the run fails outright. Each
# benchmark runs $(BENCHCOUNT) times and the snapshot keeps the
# per-benchmark minimum — every scheduling disturbance inflates a
# sample, so the minimum is the noise-robust estimate the gate
# compares. Refresh the baseline deliberately with
#   cp $(OUT)/BENCH_<stamp>.json BENCH_baseline.json
# after a reviewed perf change, never automatically. Benchmarks run at
# -cpu 1, the GOMAXPROCS the baseline was recorded at, so stages that
# fan out over Workers(0) measure the same work on every host.
bench: | $(OUT)
	$(GO) test -run NONE -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -cpu 1 . | tee $(OUT)/bench.out
	$(GO) run ./tools/benchdiff -parse -in $(OUT)/bench.out -out $(OUT)/BENCH_$(BENCH_STAMP).json
	$(GO) run ./tools/benchdiff -baseline BENCH_baseline.json -current $(OUT)/BENCH_$(BENCH_STAMP).json \
		-max-regress $(MAXREGRESS) -max-bytes-regress $(MAXBYTESREGRESS) -max-allocs-regress $(MAXALLOCSREGRESS)

# One-iteration sanity pass over every benchmark — wired into verify so
# a broken bench never reaches the trajectory.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x -benchmem -cpu 1 . > /dev/null

# CPU + heap profiles of the routing, anneal, 1M-sweep, crosstalk-fit,
# frequency-allocation, TDM-grouping, full-pipeline, warm
# Theta-redesign and disk-recall hot paths, written under $(OUT) with
# the `go tool pprof -top` text of each beside them (CI uploads both as
# artifacts). Like `bench`, they run at -cpu 1; each benchmark runs for
# 2s, so even the slowest yields enough samples to rank its hot
# functions. Samples attribute to pipeline stages via the runtime/pprof
# labels the stage store applies.
bench-profile: | $(OUT)
	$(GO) test -run NONE -bench 'AStarRouting|AnnealedAllocation|ScaleSweep1M|DesignPipeline36Q|CrosstalkFit|FDMAllocate|TDMGrouping|ThetaSweepWarm|DiskRecallDesign' \
		-benchtime 2s -benchmem -cpu 1 -o $(OUT)/bench.test \
		-cpuprofile $(OUT)/bench.cpu.pprof -memprofile $(OUT)/bench.mem.pprof . > /dev/null
	$(GO) tool pprof -top $(OUT)/bench.test $(OUT)/bench.cpu.pprof > $(OUT)/bench.cpu.top.txt
	$(GO) tool pprof -top -sample_index=alloc_space $(OUT)/bench.test $(OUT)/bench.mem.pprof > $(OUT)/bench.mem.top.txt

# Coverage over the whole module, plus enforced per-package floors (see
# COVER_FLOORS above): any listed package dropping below its floor
# fails the target.
cover: | $(OUT)
	$(GO) test -coverprofile=$(OUT)/cover.out ./...
	@$(GO) tool cover -func=$(OUT)/cover.out | tail -n 1
	@fail=0; for entry in $(COVER_FLOORS); do \
		pkg=$${entry%:*}; floor=$${entry#*:}; \
		prof=$(OUT)/cover.$$(echo $$pkg | tr / .).out; \
		$(GO) test -coverprofile=$$prof ./$$pkg > /dev/null || { fail=1; continue; }; \
		pct=$$($(GO) tool cover -func=$$prof | awk '$$1=="total:"{sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor: $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p+0 >= f+0)}' || \
			{ echo "FAIL: $$pkg coverage $$pct% is below the $$floor% floor"; fail=1; }; \
	done; exit $$fail

# Smoke-test graceful degradation: design a small chip across a defect
# ladder and print the wiring/fidelity table.
faults:
	$(GO) run ./cmd/youtiao -qubits 25 -sweep-defects 0,0.01,0.02,0.05 -retry-budget 3

# End-to-end smoke of the real youtiao-serve binary (race-enabled
# build): probes, a design request, an overload burst that must shed
# with 429 + Retry-After, a /metrics scrape, and a SIGTERM drain that
# must exit cleanly. See DESIGN.md, "The serving contract".
serve-smoke:
	./scripts/serve_smoke.sh

# The CI replay-regression gate: replay the committed golden traces
# against the library driver (deterministic summary must match the
# committed fixtures at workers 1 and 4), against a persistent warm
# cache tier, and against a live race-enabled youtiao-serve. See
# DESIGN.md, "The workload contract".
workload-smoke:
	./scripts/workload_smoke.sh

# Nightly long-form load run: the defect-storm workload scaled into
# overload over $(SIMDURATION) of virtual time, replayed through the
# library driver. Not a gate — the JSON report under $(OUT) is the
# artifact, for trend-watching throughput, fairness and hit rates.
sim-full: | $(OUT)
	$(GO) run ./cmd/youtiao-load -workload defect-storm \
		-scale $(SIMSCALE) -duration $(SIMDURATION) -workers 8 \
		-report json -out $(OUT)/sim-full.json
	@cat $(OUT)/sim-full.json

# The hypothesis-experiment harness (cmd/hypo): each registered
# experiment states a claim, runs it under the verdict rules of
# internal/hypo, and records FINDINGS.json / FINDINGS.md under
# hypotheses/<id>/. `experiments` runs the full registry at default
# seeds; `experiments-smoke` runs only the deterministic tier (the CI
# gate — fast and byte-reproducible); `experiments-full` re-runs the
# statistical tier on an extended seed set.
experiments:
	$(GO) run ./cmd/hypo -run all -out hypotheses

experiments-smoke:
	$(GO) run ./cmd/hypo -run deterministic -out hypotheses

experiments-full:
	$(GO) run ./cmd/hypo -run deterministic -out hypotheses
	$(GO) run ./cmd/hypo -run statistical -seeds 1,2,3,4,5 -out hypotheses

# Alternating-pair comparison of the end-to-end benchmark (perfbench)
# between BASE and the working tree: tools/ab checks BASE out with
# `git worktree` under .bench_build/, runs PAIRS pairs per workload
# with the first side swapped each pair, and prints each metric's
# medians and quartiles, the change's wins and a verdict against the
# bounds in BENCHMARK.json. Each run lasts BENCHMARK.json's
# run_seconds.
BASE ?= HEAD
PAIRS ?= 10
WORKLOADS ?= cold-design,tenant-churn,warm-restart
SEED ?= 1
ab:
	$(GO) run ./tools/ab -base $(BASE) -pairs $(PAIRS) -workloads $(WORKLOADS) -seed $(SEED)

# H1's false-failure rate: runs the tier-1 TestStatisticalTierConfirms
# RUNS times on BASE and RUNS times on the working tree, alternately,
# and prints each side's failure count with every failed seed's warm
# speedup (scripts/h1_rate.sh).
RUNS ?= 200
h1-rate:
	./scripts/h1_rate.sh $(RUNS) $(BASE)

verify: build vet test bench-smoke

# Remove every generated local product: run output, profiles, built
# binaries and local persistent cache directories (the default
# .youtiao-cache plus any smoke-test leftovers). Committed artifacts
# (BENCH_baseline.json, hypotheses/README.md) are untouched.
clean:
	rm -rf $(OUT) .youtiao-cache
	rm -f youtiao youtiao-serve *.pprof
