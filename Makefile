GO ?= go

# BENCH_BASELINE is the perf-trajectory snapshot regressions are
# warned against: the latest committed spampsm-bench/v2 document
# (BENCH_6+ are serve/memsched/incremental/cluster documents with
# their own schemas, which benchjson refuses to compare). Both
# bench-json and CI's bench-radar route through this variable, so a
# future snapshot bump edits one line here instead of hardcoded paths.
BENCH_BASELINE ?= BENCH_5.json

# The cluster radar's pair: the wire-v1 snapshot the v2 wire was
# measured against, and the committed v2 document. benchjson diffs the
# machine-independent wire-accounting columns (ship share,
# continuation share, exactly-once recovery) between the two — no
# benchmarks are run, so this is cheap enough for CI.
CLUSTER_BASELINE ?= BENCH_9.json
CLUSTER_CURRENT ?= BENCH_10.json

.PHONY: build test vet vet-benchmark loc alloc-profile race bench bench-quick bench-json bench-radar serve-smoke bench-serve bench-memsched bench-incremental incremental-smoke bench-cluster cluster-smoke oracle check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# vet-benchmark compiles and vets the benchmark module (benchmark/ is
# its own module, built against this one, and outside the tier-1 run):
# a refactor that breaks a name it uses fails here, not in a later
# benchmark run.
vet-benchmark:
	$(GO) -C benchmark vet ./...

# loc prints the two size numbers ROADMAP.md tracks: non-test,
# non-blank, non-comment Go lines under cmd/ and internal/, and flag
# definitions under cmd/.
loc:
	@printf 'non-test Go lines (cmd, internal): '; \
		find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | grep -vcE '^\s*(//.*)?$$'
	@printf 'flag definitions (cmd): '; \
		grep -rhoE '\bflag\.[A-Z][A-Za-z0-9]*\("' cmd | wc -l

# alloc-profile attributes the spamrun paths' allocation by site: one
# `spamrun -reentry -memprofile` per paper dataset into the gitignored
# .alloc_profile/, then the top of the three profiles merged, by bytes
# allocated; then the session path (MOFF, ten 2% updates — the
# benchmark's session_update) by bytes allocated and by bytes still in
# use when the session ends, so retained heap has a table too. These
# are the tables docs/PERFORMANCE.md "Allocation" was cut from; the
# next allocation diet starts here, not from a guess.
alloc-profile:
	mkdir -p .alloc_profile
	$(GO) build -o .alloc_profile/spamrun ./cmd/spamrun
	for d in SF DC MOFF; do \
		.alloc_profile/spamrun -dataset $$d -reentry -memprofile .alloc_profile/$$d.prof >/dev/null || exit 1; \
	done
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 .alloc_profile/spamrun \
		.alloc_profile/SF.prof .alloc_profile/DC.prof .alloc_profile/MOFF.prof
	.alloc_profile/spamrun -dataset MOFF -reentry -update 10 -churn 0.02 \
		-memprofile .alloc_profile/session.prof >/dev/null
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=10 .alloc_profile/spamrun .alloc_profile/session.prof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=10 .alloc_profile/spamrun .alloc_profile/session.prof

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x .

# bench-quick is the CI smoke benchmark: the seed-load,
# engine-construction, geometry-predicate, partner-search and
# task-scheduler microbenchmarks at a short benchtime, well under
# 60 s. It exists to catch gross wall-clock regressions (an optimized
# variant suddenly slower than its baseline) without the cost of the
# full bench-json matrix.
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkSeedLoad|BenchmarkEngineBuild' \
		-benchtime 0.3s ./internal/ops5/
	$(GO) test -run '^$$' -bench 'BenchmarkGeomPredicates' \
		-benchtime 0.3s ./internal/geom/
	$(GO) test -run '^$$' -bench 'BenchmarkPartnerSearch' \
		-benchtime 0.3s ./internal/spam/
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerPolicies' \
		-benchtime 0.3s ./internal/machine/

# bench-json regenerates the perf-trajectory snapshot: Go benchmarks
# over internal/rete, internal/ops5, internal/tlp, internal/matchbench,
# internal/geom and an end-to-end scaled-down interpretation, with
# indexed-vs-naive matcher, instantiate-vs-recompile engine
# construction, batched-vs-unbatched seed-load, fast-vs-exact geometry
# and grid-vs-scan partner-search comparisons, written to BENCH_5.json
# and checked (non-fatally) against the previous snapshot (see
# docs/PERFORMANCE.md).
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_5.json -compare BENCH_4.json

# bench-radar is CI's wall-clock regression radar: one fast min-of-1
# pass over the benchjson matrix compared against $(BENCH_BASELINE).
# Warnings are non-fatal by design — short benchtimes on shared CI
# runners are noisy — but land in the log for review.
bench-radar:
	$(GO) run ./cmd/benchjson -out /tmp/BENCH.ci.json -benchtime 0.2s -count 1 \
		-compare $(BENCH_BASELINE)
	$(GO) run ./cmd/benchjson -compare $(CLUSTER_BASELINE) -cluster $(CLUSTER_CURRENT)

# serve-smoke is the CI smoke test for the interpretation service
# (cmd/spamserve, docs/SERVING.md): it starts the server in-process,
# fires a small mixed clean + fault-injected + incremental-session
# workload at it through the load generator, and fails unless every
# /healthz probe passed and the resulting serve-bench summary is
# well-formed. The document goes to a scratch path so the committed
# BENCH_6.json snapshot is untouched.
serve-smoke:
	$(GO) run ./cmd/spamload -self-serve -requests 6 -concurrency 3 \
		-datasets DC,MOFF -scenarios clean,faults,updates \
		-session-updates 2 -out /tmp/BENCH_6.smoke.json -check

# bench-serve regenerates the committed BENCH_6.json serving snapshot:
# the full default workload (24 requests x 6 clients over SF/DC/MOFF,
# clean and fault-injected scenarios) against an in-process server.
bench-serve:
	$(GO) run ./cmd/spamload -self-serve -out BENCH_6.json -check

# oracle runs the differential oracles — indexed vs naive matcher,
# template-instantiated vs fresh-compiled engines, fast-vs-exact
# geometry, the scheduling policies (simulator vs Run anchor, pool
# policies and memory budgets vs the serial FIFO baseline), and the
# incremental-update path (remove-driven retraction vs fresh load, a
# swept-and-reloaded engine vs a fresh one, session updates vs
# from-scratch re-interpretation — outputs and, per task that ran,
# statistics, counters and cost log — which tasks a hand-built delta
# re-runs and why, RTF batching by region-ID cell vs by position, and
# what a session retains, at the engine, spam and serve layers) — at
# every level (rete scripts, ops5 engines, geometry kernels, the
# scheduler, the task-process pool, full-SPAM interpretations, the HTTP
# session surface), and the match
# arena (engines that borrow, settle and recycle a worker's scratch vs
# engines that own their memory; a settled engine stays readable and
# refuses to run; an unsettled one leaves the next task fresh; a
# long-lived worker's arena is bounded and steady under window trim), under
# the race detector. These are the byte-identity guarantees of
# docs/PERFORMANCE.md; everything here also runs as part of `race`,
# but this target names the contract and fails fast on it.
oracle:
	$(GO) test -race \
		-run 'Differential|Template|Concurrent|MatcherToggles|VariantCache|Scratch|Settled|Unsettled|Arena|Retain|Reasons|Signature|Batching' \
		./internal/rete/ ./internal/ops5/ ./internal/geom/ ./internal/spam/ \
		./internal/tlp/ ./internal/machine/ ./internal/serve/ ./internal/cluster/

# bench-memsched regenerates the committed BENCH_7.json snapshot: the
# memory-aware scheduling experiment's makespan-vs-memory-budget
# curves (every policy at P=1..64 over SF/DC/MOFF) plus the 10x-scale
# stress scene where the bounded policy fits a budget FIFO's peak
# exceeds. The report is invariant-checked before it is written.
bench-memsched:
	$(GO) run ./cmd/spambench -experiment ext-memsched -json BENCH_7.json

# bench-incremental regenerates the committed BENCH_8.json snapshot:
# the incremental re-interpretation churn ladder (1/5/20% scene churn
# over SF/DC/MOFF at calibrated scale, update cost vs a timed
# from-scratch re-interpretation). The report is invariant-checked —
# including byte-identity of every updated result and the calibrated
# DC@1% proportionality bound — before it is written.
bench-incremental:
	$(GO) run ./cmd/spambench -experiment ext-incremental -json BENCH_8.json

# incremental-smoke is the CI smoke version of bench-incremental: the
# same ladder at reduced subset scale (where the proportionality bound
# is deliberately not enforced — absolute constraint radii make small
# scenes non-local) to a scratch path, leaving the committed
# BENCH_8.json untouched. Identity and diff accounting are still
# checked on every point.
incremental-smoke:
	$(GO) run ./cmd/spambench -experiment ext-incremental \
		-subset-scale 0.35 -json /tmp/BENCH_8.smoke.json

# bench-cluster regenerates the committed BENCH_10.json snapshot: the
# multi-process cluster scale-out experiment (SF/DC/MOFF and the
# 10x-scale stress scene at 1/2/4 worker processes, content-addressed
# wire volume accounting and the worker-side continuation share,
# against the simulated svm/msgpass projections) plus the worker-kill
# recovery run with re-entry
# enabled, at the subset scale the snapshot was calibrated at. The
# report is invariant-checked before it is written — including the
# shipped-bytes budget (wire bytes per modeled seed byte must hold a
# 3x reduction over BENCH_9.json's v1 wire on SF/DC/MOFF); wall-clock
# columns are host-dependent and deliberately ungated.
bench-cluster:
	$(GO) run ./cmd/spambench -experiment ext-cluster -subset-scale 0.4 -json BENCH_10.json

# cluster-smoke is the CI smoke test for the multi-process cluster
# runtime (internal/cluster, docs/CLUSTER.md): a real scaled-down DC
# interpretation over two worker processes, then the same scene
# re-interpreted single-process in-process, failing unless the outputs
# are byte-identical and the run shipped its whole task queue over the
# wire.
cluster-smoke:
	$(GO) run ./cmd/spamrun -dataset DC -scale 0.4 -workers 2 \
		-cluster-workers 2 -cluster-check

# check is the full verification gate: the tier-1 build and tests,
# static analysis (of this module and the benchmark module built
# against it), the size numbers, the differential oracles, and the
# race detector over every package.
check: build test vet vet-benchmark loc oracle race
