GO ?= go

.PHONY: build test vet vet-benchmark loc loc-delta alloc-profile cpu-profile radar race bench bench-quick cluster-smoke oracle check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# vet-benchmark compiles, vets and unit-tests the benchmark module
# (benchmark/ is its own module, built against this one, and outside
# the tier-1 run): a refactor that breaks a name it uses fails here, not
# in a later benchmark run.
vet-benchmark:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# loc prints the two size numbers ROADMAP.md tracks — non-test,
# non-blank, non-comment Go lines under cmd/ and internal/, and flag
# definitions under cmd/ (a test's own flags, like the golden tests'
# -update, are not the commands') — and nine counts that must stay
# zero: build switches, package-level atomic.Bool declarations in
# internal/spam and internal/geom, which is what a process-global
# switch is made of, the cluster's retired second way onto a worker,
# the retired second set of task processes, the real pool's retired
# memory gate, the retired patched partner grid, the retired
# user-reachable fault injection, the retired self-killing worker,
# and the real pool's retired queue policies. The first counts
# mentions of the process-global switches (tests and comments
# included) and non-test mentions of the per-run build mode that
# replaced them and of its reference bits, which now live only in
# tests as the reference store and engine. The third counts non-test
# mentions of the worker-side continuation push and of byte-priced
# stealing: every task reaches a worker through the shard queue. The
# fourth counts non-test mentions of the cluster worker's single-task
# entry, the benign firing cap, spam's private-pool runner and the
# retired second executor with its per-run arena hand-off: tlp.Pool is
# the one executor — a worker process, a server and an interpretation
# each run on one — and every executor takes its RunConfig per call.
# The fifth counts non-test mentions of the memory gate and its knobs:
# the memory budget is the simulator's (machine.RunSpecs), and no real
# pool limits anything by memory. The sixth counts non-test mentions of the
# partner grid a session kept and patched, its update counters and its
# size gate: every run builds its LCC partner index from its fragment
# pool, one way (internal/spam/fraggrid.go). The seventh counts non-test
# mentions of the ways a request, a flag or an option used to inject
# faults, and of the quarantine class that kept a run's own plan off
# /healthz, in the commands and packages a user reaches: chaos is test
# apparatus (tlp.RunConfig.Faults, which the in-process chaos suites
# set, and internal/cluster's death harness, which kills a worker from
# outside it). cmd/spambench is left out: its ext-faults simulator
# keeps its -fault-seed and -crash-rate. The eighth counts non-test
# mentions of the worker's process-fault plan, of the respawn knob that
# only tests set, and of a SIGKILL: no product code can make a worker
# kill itself, and a worker death is a test's doing. The ninth counts
# non-test mentions of the real pool's queue policies, their size
# estimate and the -sched flags: every tlp.Pool and cluster queue runs
# in the order it was submitted, and the policies live only in the
# simulator (machine.Policy, whose names it does not match).
loc:
	@printf 'non-test Go lines (cmd, internal): '; \
		find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | grep -vcE '^\s*(//.*)?$$'
	@printf 'flag definitions (cmd): '; \
		grep -rhoE --exclude='*_test.go' '\bflag\.[A-Z][A-Za-z0-9]*\("' cmd | wc -l
	@printf 'build switch mentions (cmd, internal; want 0): '; \
		{ grep -rhoE 'Use(NaiveMatch|FreshCompile|UnbatchedSeed|UncachedGeo|ExactOnly)' cmd internal; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'BuildMode|NaiveMatch|FreshCompile|ReferenceGeo|SetDispatching|DispatchedMatch|refGeo' cmd internal; } | wc -l
	@printf 'package-level atomic.Bool (internal/spam, internal/geom; want 0): '; \
		grep -hE '^var .*atomic\.Bool' internal/spam/*.go internal/geom/*.go | wc -l
	@printf 'continuation push and byte-priced steal mentions (cmd, internal; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'Continues|Spawned|continuationTarget|stealCost' cmd internal | wc -l
	@printf 'second task-process set mentions (cmd, internal; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'RunOne|MaxFirings|poolRunner|SharedPool|takeScratch|putScratch' cmd internal | wc -l
	@printf 'real-pool memory gate mentions (cmd, internal; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'memGate|MemBudget|MemSched|runGated|mem-budget' cmd internal | wc -l
	@printf 'patched partner grid mentions (cmd, internal; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'\.refresh\(|LiveGridStats|partnerGrid|GridStats|slotOf|gridMinFragments' cmd internal | wc -l
	@printf 'user-reachable fault injection mentions (spamrun, spamserve, serve, spam, tlp; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'AllowFaults|allow-faults|FaultConfig|InjectedQuarantines|injQuar|crash-rate|fault-seed|req\.Faults|opt\.Faults' \
			cmd/spamrun cmd/spamserve internal/serve internal/spam internal/tlp | wc -l
	@printf 'self-killing worker mentions (cmd, internal; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'ProcFaults|procPlan|MaxRespawns|syscall\.SIGKILL' cmd internal | wc -l
	@printf 'real-pool queue policy mentions (cmd, internal; want 0): '; \
		grep -rhoE --include='*.go' --exclude='*_test.go' \
			'LargestFirst|ParseQueuePolicy|queuePolicyNames|taskMemEst|"sched"|\bc\.Policy\b' cmd internal | wc -l

# loc-delta prints loc's two tracked numbers, non-test lines and flags,
# for BASE (a git revision, checked out into a temporary git worktree
# under the gitignored .bench_build/ and removed again) and for the
# working tree, side by side with the change. It reports and does not
# gate; CI's radar job runs it against a pull request's base.
loc-delta:
	@wt=.bench_build/loc-base; rm -rf $$wt; git worktree prune; \
		git worktree add -q --detach $$wt $(BASE) || exit 2; \
		base=$$($(MAKE) -s --no-print-directory -C $$wt loc | sed -n 1,2p); \
		git worktree remove --force $$wt; \
		change=$$($(MAKE) -s --no-print-directory loc | sed -n 1,2p); \
		printf '%s\n' "$$base" "$$change" | awk -F': ' -v base='$(BASE)' \
			'NR == 1 { printf "%-36s %12s %12s %8s\n", "", base, "tree", "change" } \
			NR <= 2 { name[NR] = $$1; was[NR] = $$2 } \
			NR > 2 { printf "%-36s %12d %12d %+8d\n", name[NR-2], was[NR-2], $$2, $$2 - was[NR-2] }'

# alloc-profile attributes the user paths' allocation by site, every
# table from a test binary's -memprofile into the gitignored
# .alloc_profile/; the next allocation diet starts here, not from a
# guess. It starts with cpu-profile's twin: the benchmark's
# interpret_cli op (internal/core's BenchmarkInterpretRound: SF, DC and
# MOFF with re-entry), by bytes allocated, once over 10 rounds and once
# over 40: a site that grows with the rounds allocates in steady state,
# one that does not is warm-up — the tables docs/PERFORMANCE.md "A task
# returns its phase's answer" was sized from. Then the session path:
# forty updates of the benchmark's session_update op (internal/core's
# BenchmarkSessionUpdate — MOFF, 2% churn, a fresh session every ten
# updates) at -memprofilerate 1, by bytes allocated, a table of the
# updates alone: the benchmark opens its sessions with heap profiling
# off (see unprofiled). It ends with the cluster coordinator: ten
# rounds of the benchmark's cluster_2proc op (internal/cluster's
# BenchmarkClusterRound, which also prints B/op and coord-cpu-ms/op)
# on two worker processes, whose -memprofile is the coordinator's alone
# (a worker is its own process), by bytes allocated — the table
# docs/PERFORMANCE.md "Coordinator per-task path" and "Recycled wire
# specs" start from — and then the two workers' own allocation
# profiles merged, over their whole lives (the test binary's TestMain
# profiles a worker when the test-only SPAMPSM_TEST_WORKER_PROFILE
# names a directory), by bytes allocated — "The cluster round trip"'s.
alloc-profile:
	mkdir -p .alloc_profile
	for n in 10 40; do \
		$(GO) test -run '^$$' -bench 'BenchmarkInterpretRound$$' -benchtime $${n}x -benchmem \
			-memprofile .alloc_profile/round$$n.prof -o .alloc_profile/core.test ./internal/core || exit 1; \
		$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 .alloc_profile/core.test .alloc_profile/round$$n.prof; \
	done
	$(GO) test -run '^$$' -bench 'BenchmarkSessionUpdate$$' -benchtime 40x -benchmem -memprofilerate 1 \
		-memprofile .alloc_profile/session.prof -o .alloc_profile/core.test ./internal/core
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 .alloc_profile/core.test .alloc_profile/session.prof
	rm -rf .alloc_profile/workers && mkdir -p .alloc_profile/workers
	SPAMPSM_TEST_WORKER_PROFILE=$(CURDIR)/.alloc_profile/workers \
		$(GO) test -run '^$$' -bench 'BenchmarkClusterRound$$' -benchtime 10x -benchmem \
		-memprofile .alloc_profile/cluster.prof -o .alloc_profile/cluster.test ./internal/cluster
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 .alloc_profile/cluster.test .alloc_profile/cluster.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 .alloc_profile/cluster.test .alloc_profile/workers/alloc-*.prof

# cpu-profile is alloc-profile's CPU twin: twenty rounds of the
# benchmark's interpret_cli op (SF, DC, MOFF with re-entry on one
# task process; internal/core's BenchmarkInterpretRound) under
# -cpuprofile into the gitignored .cpu_profile/, then the top of the
# profile by flat CPU and by cumulative CPU. Then the same two tables
# for forty updates of the benchmark's session_update op
# (internal/core's BenchmarkSessionUpdate; its profile also samples the
# sessions' openings, one initial interpretation per ten updates, which
# run outside its timer). Then the same two tables for 400
# requests of the benchmark's serve_inline_small op
# (internal/serve's BenchmarkInlineRequest: inline DC x0.3 scenes with
# re-entry, each a dataset-cache miss, through httptest), and a third
# table of the server's own functions by cumulative CPU — decodeBody's
# share of a request among them. Then the
# same two tables for the cluster coordinator: ten rounds of the
# benchmark's cluster_2proc op (internal/cluster's
# BenchmarkClusterRound, which also prints coord-cpu-ms/op) on two
# worker processes, whose -cpuprofile is the coordinator's alone, and
# the same two tables of the two workers' own CPU profiles merged
# (SPAMPSM_TEST_WORKER_PROFILE, as in alloc-profile).
# docs/PERFORMANCE.md "Match kernel" and "Constraint geometry" started
# from these tables; the next CPU work starts here, not from a guess.
cpu-profile:
	mkdir -p .cpu_profile
	$(GO) test -run '^$$' -bench 'BenchmarkInterpretRound$$' -benchtime 20x \
		-cpuprofile .cpu_profile/round.prof -o .cpu_profile/core.test ./internal/core
	$(GO) tool pprof -top -nodecount=25 .cpu_profile/core.test .cpu_profile/round.prof
	$(GO) tool pprof -top -cum -nodecount=25 .cpu_profile/core.test .cpu_profile/round.prof
	$(GO) test -run '^$$' -bench 'BenchmarkSessionUpdate$$' -benchtime 40x \
		-cpuprofile .cpu_profile/session.prof -o .cpu_profile/core.test ./internal/core
	$(GO) tool pprof -top -nodecount=25 .cpu_profile/core.test .cpu_profile/session.prof
	$(GO) tool pprof -top -cum -nodecount=25 .cpu_profile/core.test .cpu_profile/session.prof
	$(GO) test -run '^$$' -bench 'BenchmarkInlineRequest$$' -benchtime 400x \
		-cpuprofile .cpu_profile/serve.prof -o .cpu_profile/serve.test ./internal/serve
	$(GO) tool pprof -top -nodecount=25 .cpu_profile/serve.test .cpu_profile/serve.prof
	$(GO) tool pprof -top -cum -nodecount=25 .cpu_profile/serve.test .cpu_profile/serve.prof
	$(GO) tool pprof -top -cum -nodecount=15 -show 'spampsm/internal/serve\.' .cpu_profile/serve.test .cpu_profile/serve.prof
	rm -rf .cpu_profile/workers && mkdir -p .cpu_profile/workers
	SPAMPSM_TEST_WORKER_PROFILE=$(CURDIR)/.cpu_profile/workers \
		$(GO) test -run '^$$' -bench 'BenchmarkClusterRound$$' -benchtime 10x \
		-cpuprofile .cpu_profile/cluster.prof -o .cpu_profile/cluster.test ./internal/cluster
	$(GO) tool pprof -top -nodecount=25 .cpu_profile/cluster.test .cpu_profile/cluster.prof
	$(GO) tool pprof -top -cum -nodecount=25 .cpu_profile/cluster.test .cpu_profile/cluster.prof
	$(GO) tool pprof -top -nodecount=25 .cpu_profile/cluster.test .cpu_profile/workers/cpu-*.prof
	$(GO) tool pprof -top -cum -nodecount=25 .cpu_profile/cluster.test .cpu_profile/workers/cpu-*.prof

# radar compares the working tree with BASE (a git revision) on the
# benchmark: BASE is checked out into a git worktree under the
# gitignored .bench_build/, then `bash benchmark/run.sh -workload W
# -seconds SECONDS` runs on base and change in alternating order, PAIRS
# pairs for every workload of the base's BENCHMARK.json, pair i of both
# sides built with the linker's code layout seed i
# (GOFLAGS=-ldflags=-randlayout=i in run.sh's environment). It prints both
# medians of every end-to-end metric, the change, the base's spread,
# the bound and the pairs the change won, and fails when a run of the
# change fails an op or a metric is worse than its bound where the
# base's spread resolves that bound (elsewhere the metric is reported
# as unresolved); it also prints how many runs of each side failed an
# op. WORKLOAD, a comma list, narrows the run to some of the base's
# workloads, so a claimed one can get more pairs than the rest (a name
# the base does not declare exits 2). tools/radar is the program; CI
# runs it on every pull request against its base.
BASE ?= main
PAIRS ?= 5
SECONDS ?= 20
WORKLOAD ?=
radar:
	$(GO) run ./tools/radar -base $(BASE) -pairs $(PAIRS) -seconds $(SECONDS) -workload '$(WORKLOAD)'

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x .

# bench-quick is the CI smoke benchmark: the value-equality,
# symbol-intern, join-test, constant-test-dispatch (a null activation
# included), recognize-act (a conflict set full of fired instantiations
# included), seed-load, engine-construction, geometry-predicate,
# partner-search (the grid's construction, which every run pays once
# per fragment pool, included) and task-scheduler microbenchmarks at a
# short benchtime, a request body's decoding (the server's decoder
# beside the encoding/json one it replaced, on a benchmark body), then three cluster_2proc rounds (BenchmarkClusterRound,
# whose columns split a round's CPU, allocation and context switches
# between the coordinator and its two worker processes), well under
# 60 s.
# It exists to surface gross wall-clock regressions (an optimized variant suddenly
# slower than its baseline) in the log; the measured numbers are
# benchmark/run.sh's.
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkValueEqual|BenchmarkSymIntern' \
		-benchtime 0.3s ./internal/symtab/
	$(GO) test -run '^$$' -bench 'BenchmarkJoinTest|BenchmarkAddDispatch' \
		-benchtime 0.3s ./internal/rete/
	$(GO) test -run '^$$' -bench 'BenchmarkRecognizeActCycle|BenchmarkSeedLoad|BenchmarkEngineBuild' \
		-benchtime 0.3s ./internal/ops5/
	$(GO) test -run '^$$' -bench 'BenchmarkGeomPredicates' \
		-benchtime 0.3s ./internal/geom/
	$(GO) test -run '^$$' -bench 'BenchmarkPartnerSearch' \
		-benchtime 0.3s ./internal/spam/
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerPolicies' \
		-benchtime 0.3s ./internal/machine/
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeBody' \
		-benchtime 200x ./internal/serve/
	$(GO) test -run '^$$' -bench 'BenchmarkClusterRound$$' \
		-benchtime 3x ./internal/cluster/

# oracle runs the differential oracles — constant tests dispatched vs
# swept, on scripts and on generated rule sets, capture on and off,
# template-instantiated vs fresh-compiled engines, AssertBatch vs
# Assert, fast-vs-exact geometry, a whole interpretation vs its
# reference twin and both, capturing and not, at once beside one cached
# dataset, the scheduling policies (simulator vs Run
# anchor, pool policies at one and several workers vs the serial FIFO
# baseline),
# and the incremental-update path (remove-driven retraction vs fresh load, a
# swept-and-reloaded engine vs a fresh one, session updates vs
# from-scratch re-interpretation — outputs and, per task that ran,
# statistics, counters and cost log — which tasks a hand-built delta
# re-runs and why, every task an update runs loading exactly the rows
# it was signed from, RTF batching by region-ID cell vs by position, and
# what a session retains, at the engine, spam and serve layers) — at
# every level (rete scripts, ops5 engines, geometry kernels, the
# scheduler, the task-process pool, full-SPAM interpretations, the HTTP
# session surface), the cluster (a run over two worker processes vs
# the in-process pool, inside its wire-locality budget; every task
# frame wired by two feeders into recycled specs vs the frame of its
# rows in fresh memory; every task a worker decodes into recycled
# storage vs the rows wired for it; every phase's read over the rows a
# result frame keeps vs over all of them; the allocation ceilings of the
# coordinator's and the worker's per-task paths; a coordinator, a
# worker or a server that closes leaving no goroutine or task process
# behind; the
# coordinator→worker pipeline — deep enough to keep an executor fed,
# results coalesced, a dropped connection's queue abandoned — and what a
# worker death charges at each enumerated kill point),
# and the match arena (engines that borrow, settle and recycle a
# worker's scratch vs engines that own their memory; the rows a worker
# copies out before settling vs the rows an owning engine serves; a
# settled engine keeps its statistics, serves no working memory and
# refuses to run; an unsettled one leaves the next task fresh; a
# long-lived worker's arena is bounded and steady under window trim; a
# task's statistics and exact-sized cost log, however its run ended,
# outlive a trim window of later tasks on its worker's arena), and
# the value representation (the two-word symtab.Value against the
# four-field struct it replaced, its shape, concurrent interning; a
# process whose intern table filled in another order prints the same
# wire frames, digests and outputs; a served request interns nothing),
# and the request bodies' decoder (encoding/json's accepts, values and
# words of refusal on both body types; a benchmark body's allocation
# ceiling), under the race detector. These are the byte-identity guarantees of
# docs/PERFORMANCE.md; everything here also runs as part of `race`,
# but this target names the contract and fails fast on it.
oracle:
	$(GO) test -race \
		-run 'Differential|Dispatch|Template|Concurrent|VariantCache|Scratch|Settled|Unsettled|Arena|Retain|Reasons|Signature|Signs|Batching|Repr|Intern|Pipeline|KillPoint|TaskPathAllocation|LeavesNo|DecodeBody' \
		./internal/symtab/ ./internal/rete/ ./internal/ops5/ ./internal/geom/ ./internal/spam/ \
		./internal/tlp/ ./internal/machine/ ./internal/serve/ ./internal/cluster/

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
# static analysis of this module, static analysis and unit tests of the
# benchmark module built against it, the size numbers, the differential
# oracles, and the race detector over every package.
check: build test vet vet-benchmark loc oracle race
