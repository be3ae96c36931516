GO ?= go

.PHONY: all build vet fmt test race bench bench-json bench-compare bench-gate \
	bench-selftest bench-digests profile staticcheck docs golden golden-check resume-check \
	scale-smoke scale trace-smoke report fuzz examples ci clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fail when gofmt would rewrite any tracked Go file,
# and name the files.
GOFMT ?= gofmt
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$out" ]; then echo "$$out"; echo "gofmt would rewrite the files above"; exit 1; fi; \
	echo "gofmt: every tracked Go file is formatted"

test:
	$(GO) test ./...

# Full figure benchmarks (one iteration each) with allocation metrics.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -v

# Self-tests of the benchmark module (bench/, a Go module of its own that
# `go test ./...` at the root does not build): every workload at a smoke
# size, about 7 s. It compiles against the event-layer surface the
# benchmark drives, so an API change that breaks bench/ fails here.
bench-selftest:
	cd bench && $(GO) test ./...

# The benchmark's digest gate: run every workload once (--seconds 0) at
# two seeds through bench/run.sh and fail unless each reports
# "correct": true, i.e. every operation's result digest matches
# bench/expected/. bench-selftest never compares digests, so a result
# field renamed or reordered passes it; this catches that. About 20 s.
BENCH_WORKLOADS = link-paper sda-league population-1e6 route-watermark
BENCH_SEEDS = 3 7
bench-digests:
	@for w in $(BENCH_WORKLOADS); do for s in $(BENCH_SEEDS); do \
		last=$$(bash bench/run.sh --workload $$w --seed $$s --seconds 0 --trace 0 | tail -n 1); \
		case "$$last" in \
		'{"correct":true'*) echo "bench-digests: $$w seed $$s correct";; \
		*) echo "$$w seed $$s: $$last"; echo "bench digests differ from bench/expected"; exit 1;; \
		esac; \
	done; done

# Append a timing trajectory record for every experiment to BENCH.json.
bench-json:
	$(GO) run ./cmd/linkpadsim -exp all -scale 0.5 -bench-json BENCH.json

# Per-experiment wall-clock deltas between the last two comparable
# BENCH.json records (same scale/seed/workers and effective parallelism).
bench-compare:
	$(GO) run ./cmd/linkpadsim -bench-compare BENCH.json

# Same diff, but fail if any experiment slowed down past 25% (baselines
# under 50 ms are exempt from the gate as pure scheduling noise). This is
# what the bench-trajectory CI job runs.
bench-gate:
	$(GO) run ./cmd/linkpadsim -bench-gate BENCH.json

# Smoke-scale run of every experiment with the live progress line and a
# structured JSON run report (per-layer counters, packets/sec); the
# report-smoke CI job runs the same thing and checks worker invariance.
report:
	$(GO) run ./cmd/linkpadsim -exp all -scale $(GOLDEN_SCALE) -seed $(GOLDEN_SEED) \
		-progress -report report.json
	@echo "wrote report.json"

# CPU + heap profiles of the heaviest single experiment: the SDA league
# (ext-sda-arms-race), nearly all of it the ML estimator's EM refresh
# under adaptive dummies. Any scale up to 0.3125 runs its 2500-round
# floor, about 13 s on a 2-core Xeon. Inspect with `go tool pprof cpu.prof`.
PROFILE_EXP = ext-sda-arms-race
PROFILE_SCALE = 0.25
profile:
	$(GO) run ./cmd/linkpadsim -exp $(PROFILE_EXP) -scale $(PROFILE_SCALE) \
		-cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; try: $(GO) tool pprof -top cpu.prof"

# Static analysis at the version CI pins (needs network for the first run).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...

# Documentation gate: offline markdown link check (every relative link
# and #anchor in the core documents must resolve; cmd/docscheck) plus
# go vet's doc diagnostics over the tree.
docs:
	$(GO) run ./cmd/docscheck README.md DESIGN.md PAPER.md CHANGES.md
	$(GO) vet ./...

# The golden determinism gate: every runner `linkpadsim -list` names,
# at scale 0.05 and seed 3, committed as text tables in testdata/golden,
# and again at seed 7 (the second seed bench/expected/ uses) in
# testdata/golden/seed7 for every runner but GOLDEN_SEED7_SKIP (the arms
# race, two thirds of the seed-3 time on its own). The list comes from
# the binary, so a new runner cannot skip the gate. golden-check
# regenerates them into a scratch directory and byte-diffs against the
# committed copies — the mechanical version of the "prior tables
# byte-identical" check every PR used to run by hand. After an
# *intentional* table change, run `make golden` and commit.
GOLDEN_SCALE = 0.05
GOLDEN_SEED = 3
GOLDEN_SEED7_SKIP = ext-sda-arms-race

# golden_tables builds linkpadsim into the scratch directory $(1) and
# writes every golden table below directory $(2).
define golden_tables
$(GO) build -o $(1)/linkpadsim ./cmd/linkpadsim || exit 1; \
exps=$$($(1)/linkpadsim -list) && [ -n "$$exps" ] || exit 1; \
for e in $$exps; do \
	$(1)/linkpadsim -exp $$e -scale $(GOLDEN_SCALE) -seed $(GOLDEN_SEED) -o $(2) || exit 1; \
	case " $(GOLDEN_SEED7_SKIP) " in *" $$e "*) continue;; esac; \
	$(1)/linkpadsim -exp $$e -scale $(GOLDEN_SCALE) -seed 7 -o $(2)/seed7 || exit 1; \
done
endef

golden:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf $$tmp' EXIT; \
	$(call golden_tables,$$tmp,testdata/golden)

golden-check:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf $$tmp' EXIT; \
	$(call golden_tables,$$tmp,$$tmp/out); \
	diff -ru testdata/golden $$tmp/out || { \
		echo "golden tables differ: intentional? regenerate with 'make golden' and commit"; exit 1; }; \
	echo "golden tables byte-identical: $$(echo $$exps | wc -w) runners at seed $(GOLDEN_SEED), all but $(GOLDEN_SEED7_SKIP) at seed 7"

# The resume-determinism gate: run each checkpointable sweep below, kill
# it mid-flight (simulated crash after the listed number of cells, exit
# code 3), resume from the checkpoint file, and byte-diff the finished
# table against the committed golden copy — a resumed run must be
# indistinguishable from one that never crashed. Entries are
# experiment:cells-before-the-kill.
RESUME_EXPS = ext-disclosure:3 ext-active:4 ext-sda-arms-race:20

resume-check:
	@tmp=$$(mktemp -d) || exit 1; \
	$(GO) build -o $$tmp/linkpadsim ./cmd/linkpadsim || { rm -rf $$tmp; exit 1; }; \
	for ek in $(RESUME_EXPS); do \
		e=$${ek%%:*}; kill=$${ek##*:}; \
		$$tmp/linkpadsim -exp $$e -scale $(GOLDEN_SCALE) -seed $(GOLDEN_SEED) \
			-checkpoint $$tmp/$$e.json -checkpoint-kill $$kill -o $$tmp; \
		status=$$?; \
		if [ $$status -ne 3 ]; then rm -rf $$tmp; \
			echo "$$e: expected simulated-crash exit code 3, got $$status"; exit 1; fi; \
		[ -f $$tmp/$$e.json ] || { rm -rf $$tmp; echo "$$e: no checkpoint file persisted"; exit 1; }; \
		$$tmp/linkpadsim -exp $$e -scale $(GOLDEN_SCALE) -seed $(GOLDEN_SEED) \
			-checkpoint $$tmp/$$e.json -o $$tmp || { rm -rf $$tmp; exit 1; }; \
		diff testdata/golden/$$e.txt $$tmp/$$e.txt || { rm -rf $$tmp; \
			echo "$$e: resumed table differs from the uninterrupted golden"; exit 1; }; \
	done; \
	rm -rf $$tmp; echo "kill-and-resume runs byte-identical to golden: $(RESUME_EXPS)"

# The scale gate: drive the sharded population engine at 1e5 users (a
# tenth of the million-user design point — big enough to exercise lazy
# instantiation, sparse estimators and the streaming shard merge; small
# enough for every CI run) at two worker widths and byte-diff the
# tables. -max-rss-mb pins the engine's memory model (peak resident set
# measured 24-27 MiB at -workers 1 and 36 MiB at -workers 4 on a 2-core
# Xeon; the ceiling leaves slack for GC scheduling, not for
# an O(N)-user-states regression). -timeout is the run's cooperative
# deadline: past it the run stops at its next cell, window or round
# check and exits 2. A run wedged where no check is reached is left to
# the CI job's timeout-minutes. `make scale` runs the full million-user
# point.
scale-smoke:
	@tmp=$$(mktemp -d) || exit 1; \
	$(GO) build -o $$tmp/linkpadsim ./cmd/linkpadsim || { rm -rf $$tmp; exit 1; }; \
	$$tmp/linkpadsim -exp scale-disclosure -scale 0.1 -seed 3 -workers 1 \
		-timeout 10m -max-rss-mb 512 -o $$tmp/w1 || { rm -rf $$tmp; exit 1; }; \
	$$tmp/linkpadsim -exp scale-disclosure -scale 0.1 -seed 3 -workers 4 \
		-timeout 10m -max-rss-mb 512 -o $$tmp/w4 || { rm -rf $$tmp; exit 1; }; \
	diff $$tmp/w1/scale-disclosure.txt $$tmp/w4/scale-disclosure.txt || { rm -rf $$tmp; \
		echo "scale-disclosure tables differ across -workers"; exit 1; }; \
	$$tmp/linkpadsim -exp scale-sda-ls -scale 0.1 -seed 3 -workers 1 \
		-timeout 10m -max-rss-mb 512 -o $$tmp/w1 || { rm -rf $$tmp; exit 1; }; \
	$$tmp/linkpadsim -exp scale-sda-ls -scale 0.1 -seed 3 -workers 4 \
		-timeout 10m -max-rss-mb 512 -o $$tmp/w4 || { rm -rf $$tmp; exit 1; }; \
	diff $$tmp/w1/scale-sda-ls.txt $$tmp/w4/scale-sda-ls.txt || { rm -rf $$tmp; \
		echo "scale-sda-ls tables differ across -workers"; exit 1; }; \
	rm -rf $$tmp; echo "scale-smoke: 1e5-user tables byte-identical at -workers 1 and 4"

# The full million-user design point, with the measured peak RSS printed.
scale:
	$(GO) run ./cmd/linkpadsim -exp scale-disclosure -scale 1 -seed 3 -max-rss-mb 2048
	$(GO) run ./cmd/linkpadsim -exp scale-sda-ls -scale 1 -seed 3 -max-rss-mb 2048

# The stand-alone attacker end to end: padtrace captures training and
# evaluation traces (20k PIATs each) for both payload classes of the CIT
# lab system, and advclassify trains on the first pair and classifies the
# second with every feature at two window sizes. Fails unless advclassify
# exits 0 each time and its output matches testdata/trace-smoke.txt byte
# for byte; after an intentional change, replace that file with the
# output the failing run prints.
TRACE_N = 20000
trace-smoke:
	@tmp=$$(mktemp -d) || exit 1; \
	$(GO) build -o $$tmp/padtrace ./cmd/padtrace && \
	$(GO) build -o $$tmp/advclassify ./cmd/advclassify || { rm -rf $$tmp; exit 1; }; \
	for c in 0 1; do \
		$$tmp/padtrace -class $$c -n $(TRACE_N) -stream 1 -o $$tmp/train-$$c.piat && \
		$$tmp/padtrace -class $$c -n $(TRACE_N) -stream 2 -o $$tmp/eval-$$c.piat || { rm -rf $$tmp; exit 1; }; \
	done; \
	for w in 200 1000; do for f in mean variance entropy; do \
		$$tmp/advclassify -train $$tmp/train-0.piat,$$tmp/train-1.piat \
			-eval $$tmp/eval-0.piat,$$tmp/eval-1.piat -feature $$f -window $$w >> $$tmp/out.txt \
			|| { cat $$tmp/out.txt; rm -rf $$tmp; echo "advclassify failed"; exit 1; }; \
	done; done; \
	cat $$tmp/out.txt; \
	diff testdata/trace-smoke.txt $$tmp/out.txt || { rm -rf $$tmp; \
		echo "advclassify output differs from testdata/trace-smoke.txt"; exit 1; }; \
	rm -rf $$tmp; echo "trace-smoke: padtrace -> advclassify byte-identical"

# Run every fuzz target for 30 s (go test ./... runs only their seed
# corpora). go test -fuzz takes one target per run, so each gets its own.
FUZZ_TARGETS = internal/core:FuzzDisclosureSpecBuild internal/experiment:FuzzParseCheckpoint \
	internal/netem:FuzzParseImpairment internal/trace:FuzzRead \
	cmd/advclassify:FuzzTraceRead cmd/advclassify:FuzzClassifyWindow
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz: $${t#*:} in ./$${t%%:*} for 30s"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 30s ./$${t%%:*} || exit 1; \
	done

# The root Example tests check each protocol's printed table against its
# // Output: comment. They run at every CPU (RunOptions{}), and go test
# -cpu does not repeat Examples, so a width-dependent result would show
# only on a host with another core count: run them at two widths.
examples:
	GOMAXPROCS=1 $(GO) test -count=1 -run '^Example' .
	GOMAXPROCS=3 $(GO) test -count=1 -run '^Example' .

# Everything the CI workflow runs, reproducible locally in one command.
ci: vet fmt build test examples race bench-selftest bench-digests staticcheck docs golden-check resume-check scale-smoke trace-smoke fuzz

clean:
	rm -f linkpad.test cpu.prof mem.prof report.json

# Race-detector pass over the full test suite; nested parallelism
# (sweep points x sessions x trials) is load-bearing, so run this before
# touching internal/par or the attack pipelines.
race:
	$(GO) test -race ./...
