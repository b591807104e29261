GO ?= go
GOFMT ?= gofmt

.PHONY: build fmt vet test race check loc bench kernel solverbench bench-guard perfbench-test ab chaos chaos-wire chaos-smoke metrics metrics-smoke crash-resume transport worker-smoke serve-smoke elastic elastic-smoke portfolio-smoke

build:
	$(GO) build ./...

# fmt fails, naming the files, when gofmt would reformat a tracked Go file.
fmt:
	@out="$$($(GOFMT) -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: check formatting, compile everything, vet, race-test,
# then a short kernel benchmark smoke so evaluator regressions fail loudly.
check: fmt build vet race bench

# loc prints the root module's non-test Go line count per package directory,
# then in total — the size measure design changes are judged by. perfbench/
# is a module of its own and is left out.
LOC_FILES = find . -path ./perfbench -prune -o -name '*.go' ! -name '*_test.go' -print
loc:
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
	@printf '%7d total\n' "$$($(LOC_FILES) | xargs cat | wc -l)"

# bench runs the kernel microbenchmarks, the drop order build, the drop step
# with its scan twin, and the LP solves a fixed small number of iterations —
# a smoke that they still compile and run, not a timing-quality measurement.
bench:
	$(GO) test ./internal/bench -run '^$$' -bench 'BenchmarkState|BenchmarkFits|BenchmarkAddPhase' -benchtime 100x -benchmem
	$(GO) test ./internal/tabu -run '^$$' -bench 'BenchmarkDropOrder|BenchmarkDropStep' -benchtime 100x -benchmem
	$(GO) test ./internal/lp -run '^$$' -bench . -benchtime 3x -benchmem

# chaos runs the fault-injection suite under the race detector: message
# loss, duplication, crashed slaves, mid-rendezvous errors and the solution
# aliasing regression; then the fault replay goldens five times over, since a
# faulty in-process run must replay bitwise.
chaos:
	$(GO) test -race -run Fault ./...
	$(GO) test -race -count=5 -run '^TestFaultGoldens$$' ./internal/core

# chaos-wire runs the network chaos layer and untrusted-result hardening
# suites under the race detector: the chaosnet injector unit tests, the
# frame/backoff/eviction hardening pins in wire, and the core chaos battery
# (zero-plan equivalence, recovery under corruption/resets/partitions, the
# forged-result quarantine path, a stalled or hung live worker, slow-stream
# timeouts); then the stalled-worker test five times over, since a stall
# races a wall-clock deadline.
chaos-wire:
	$(GO) test -race ./internal/transport/chaosnet ./internal/backoff
	$(GO) test -race -run 'Chaos|Hard|Evict|Cancel|Corrupt' ./internal/transport/wire
	$(GO) test -race -run '^TestChaos' ./internal/core
	$(GO) test -race -run 'SlowClient' ./internal/serve
	$(GO) test -race -count=5 -run '^TestChaosLiveMemberWaitedOn$$/^stall$$' ./internal/core

# chaos-smoke boots an elastic mkpsolve under a seeded corruption/reset/
# partition schedule with 7 rejoining mkpworker processes plus one -forge
# worker; the run must finish verified, the forger must be rejected and
# quarantined (counters on /metrics), and an inert chaos plan must reproduce
# the plain wire run bit for bit.
chaos-smoke:
	$(GO) build -o ./mkpsolve.smoke ./cmd/mkpsolve
	$(GO) build -o ./mkpworker.smoke ./cmd/mkpworker
	$(GO) build -o ./mkpgen.smoke ./cmd/mkpgen
	$(GO) build -o ./mkpverify.smoke ./cmd/mkpverify
	./scripts/chaos_smoke.sh ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke
	rm -f ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke

# kernel regenerates the committed before/after baseline for the evaluator
# hot path (optimized column-major kernel vs naive row-major reference).
kernel:
	$(GO) run ./cmd/mkpbench -kernelbench BENCH_kernel.json

# solverbench regenerates the committed end-to-end time-to-target baseline:
# deterministic SEQ/ITS/CTS1/CTS2 trajectories plus the guided-vs-unguided
# CTS2 comparison on the pinned GK instances.
solverbench:
	$(GO) run ./cmd/mkpbench -solverbench BENCH_solver.json

# bench-guard re-times the kernel ops and fails if any optimized op regresses
# more than 15% against the committed BENCH_kernel.json.
bench-guard:
	./scripts/bench_guard.sh BENCH_kernel.json

# perfbench-test vets and tests the benchmark module. perfbench/ is a module
# of its own, so the root `go test ./...` never reaches it; its pinned-suite
# checks replay the seed-1 and seed-97 trajectories, so a kernel change that
# moves a single search decision fails here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# ab runs scripts/ab.sh: AB_PAIRS alternating pairs of perfbench runs with
# AB_ARGS, the working tree against AB_REV (checked out as a worktree under
# .bench_build/), then per end-to-end metric each side's median and
# quartiles, the change/parent ratio, the change's wins and a Mann-Whitney U
# p-value. Example: make ab AB_REV=HEAD~1 AB_ARGS='--workload guided --seconds 25'
AB_REV ?= HEAD
AB_PAIRS ?= 10
AB_ARGS ?= --workload farm --seed 1 --seconds 25
ab:
	./scripts/ab.sh $(AB_REV) -n $(AB_PAIRS) -- $(AB_ARGS)

# metrics runs the observability suite under the race detector: the registry
# unit/race-hammer tests, the exposition golden tests, the HTTP endpoint and
# goroutine-leak tests, and the deterministic-snapshot / cross-invariant
# tests that drive real seeded solves.
metrics:
	$(GO) test -race ./internal/metrics ./internal/obs
	$(GO) test -race -run 'Metrics|Checkpoint' ./internal/core

# metrics-smoke boots mkpsolve with a live /metrics listener and curls the
# exposition, failing on a non-200 response or a missing metric family.
metrics-smoke:
	$(GO) build -o ./mkpsolve.smoke ./cmd/mkpsolve
	./scripts/metrics_smoke.sh ./mkpsolve.smoke
	rm -f ./mkpsolve.smoke

# transport runs the transport suites under the race detector: the binary
# codec round-trip/corruption/fuzz-seed tests, the frame-level wire tests,
# the in-process transport suite, and the cross-transport equivalence and
# leak-hygiene tests that drive real TCP sessions.
transport:
	$(GO) test -race ./internal/transport/...

# worker-smoke boots real mkpworker processes on ephemeral ports and runs a
# seeded mkpsolve against them over TCP; the final best must match the
# same-seed in-process run and the solution must pass mkpverify.
worker-smoke:
	$(GO) build -o ./mkpsolve.smoke ./cmd/mkpsolve
	$(GO) build -o ./mkpworker.smoke ./cmd/mkpworker
	$(GO) build -o ./mkpgen.smoke ./cmd/mkpgen
	$(GO) build -o ./mkpverify.smoke ./cmd/mkpverify
	./scripts/worker_smoke.sh ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke
	rm -f ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke

# crash-resume drives the durability harness: a checkpointed solve is
# kill -9'd mid-run, resumed from the newest generation (the run must end no
# worse than the pre-crash best), then resumed again past a deliberately torn
# generation that must be quarantined with fallback to the previous one.
crash-resume:
	$(GO) build -o ./mkpsolve.smoke ./cmd/mkpsolve
	$(GO) build -o ./mkpgen.smoke ./cmd/mkpgen
	$(GO) build -o ./mkpverify.smoke ./cmd/mkpverify
	./scripts/crash_resume.sh ./mkpsolve.smoke ./mkpgen.smoke ./mkpverify.smoke
	rm -f ./mkpsolve.smoke ./mkpgen.smoke ./mkpverify.smoke

# elastic runs the membership suites under the race detector: the fleet
# join/leave/crash-classification tests, the codec tests for the elastic
# frames (fuzz seeds included), the churn/equivalence battery in core, and
# the serve-layer fleet pool grow/shrink tests; then the straggler steal test
# five times over, since a steal races a wall-clock deadline.
elastic:
	$(GO) test -race ./internal/transport/proto ./internal/transport/wire
	$(GO) test -race -run 'Elastic|Absorb|Steal|Gossip' ./internal/core
	$(GO) test -race -run 'Fleet' ./internal/serve
	$(GO) test -race -count=5 -run '^TestElasticStealStraggler$$' ./internal/core

# elastic-smoke boots an elastic mkpsolve master and 64 real mkpworker -join
# processes (8 leaving early, 8 joining late), verifies the churned run's
# solution, then sweeps full fleets at P=16/64/128 under -equalwork and
# fails if rounds/sec or bytes/worker/round drift more than 20%; the sweep
# summaries are written to BENCH_elastic.json.
elastic-smoke:
	$(GO) build -o ./mkpsolve.smoke ./cmd/mkpsolve
	$(GO) build -o ./mkpworker.smoke ./cmd/mkpworker
	$(GO) build -o ./mkpgen.smoke ./cmd/mkpgen
	$(GO) build -o ./mkpverify.smoke ./cmd/mkpverify
	./scripts/elastic_smoke.sh ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke BENCH_elastic.json
	rm -f ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke

# serve-smoke drives the job-server harness: an mkpserve over a real
# mkpworker fleet takes 12 concurrent jobs under a p99 submit-to-first-result
# bound, then 8 durable jobs are kill -9'd mid-run with the server, resumed
# by a restart over the same data directory, and verified with mkpverify.
serve-smoke:
	$(GO) build -o ./mkpserve.smoke ./cmd/mkpserve
	$(GO) build -o ./mkpworker.smoke ./cmd/mkpworker
	$(GO) build -o ./mkpgen.smoke ./cmd/mkpgen
	$(GO) build -o ./mkpverify.smoke ./cmd/mkpverify
	./scripts/serve_load.sh ./mkpserve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke
	rm -f ./mkpserve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke

# portfolio-smoke boots a mixed-algorithm mkpworker fleet advertising its
# search algorithms, completes an `mkpsolve -portfolio` run through it with
# the solution checked by mkpverify, then audits the per-algorithm slot
# gauges on a live /metrics endpoint (sum = fleet size, every member >= 1).
portfolio-smoke:
	$(GO) build -o ./mkpsolve.smoke ./cmd/mkpsolve
	$(GO) build -o ./mkpworker.smoke ./cmd/mkpworker
	$(GO) build -o ./mkpgen.smoke ./cmd/mkpgen
	$(GO) build -o ./mkpverify.smoke ./cmd/mkpverify
	./scripts/portfolio_smoke.sh ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke
	rm -f ./mkpsolve.smoke ./mkpworker.smoke ./mkpgen.smoke ./mkpverify.smoke
