GO ?= go

# When set (CI sets it to $GITHUB_STEP_SUMMARY), the loadgen and replica
# smokes append their reports to this file as markdown.
BENCH_SUMMARY ?=
FUZZTIME ?= 10s
# Advisory statement-coverage floor for internal/engine (make cover
# reports, never fails).
ENGINE_COVER_FLOOR ?= 75

# Packages whose exported API surface is goldened by make api.
API_PKGS ?= .,wire,client
API_GOLDEN ?= api/API.txt

.PHONY: all build test race bench bench-e2e cover loc smoke crash poison loadgen-smoke replica-smoke cluster-smoke fuzz fmt vet lint api api-save doc-gate deps-gate ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bench smoke: compile and run every benchmark exactly once so they can
# never bit-rot. Perf is gated by counts, not ns/op: the exact and
# ceilinged budgets in budget_test.go run with `go test`, and
# `go run ./benchmark` times the serving layers end to end.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# End-to-end trajectory: the four frozen workloads of `go run ./benchmark`
# over seeds 1-3 plus one -trace run each, appended as one record (the
# commit, per-workload medians, per-layer counters, and the host-independent
# counts apart) to BENCH_e2e.json. Needs jq; about ten minutes on a 2-CPU
# box.
bench-e2e:
	GO=$(GO) scripts/bench-e2e.sh BENCH_e2e.json

# Coverage across all packages, plus an advisory floor report for the
# engine (the hot core whose coverage should not silently erode). The
# floor never fails the build — the 1-CPU CI box is for honesty, not
# gatekeeping; the numbers land in the job log and the uploaded profile.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@pct=$$(awk '$$1 ~ /^trustmap\/internal\/engine\// { total += $$2; if ($$3 > 0) covered += $$2 } \
		END { if (total > 0) printf "%.1f", 100 * covered / total; else print 0 }' coverage.out); \
	echo "internal/engine statement coverage: $$pct% (advisory floor: $(ENGINE_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(ENGINE_COVER_FLOOR)" 'BEGIN { if (p+0 < f+0) print "WARNING: internal/engine coverage " p "% is below the advisory floor of " f "%" }'

# Size report (not a gate): non-test Go lines outside benchmark/ and
# inside it, counted as ROADMAP.md counts them.
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l)"
	@echo "non-test Go lines inside benchmark/:  $$(find ./benchmark -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"

# trustd end-to-end smoke: start the HTTP server on a real listener,
# drive resolve -> mutate -> resolve, assert the second read observes the
# post-mutation epoch. Runs as its own CI step for a readable signal; the
# same test is part of the regular suite.
smoke:
	$(GO) test ./cmd/trustd -run TestSmokeHTTP -count=1 -v

# Durability acceptance: SIGKILL the internal/storm write stream
# mid-flight (the child harness is built with -race inside the test) and
# require every acked LSN to survive recovery with oracle-identical
# resolved state. crash, poison, replica-smoke and cluster-smoke run
# together in the CI storm job; their driver tests are also part of
# `go test ./...`.
crash:
	$(GO) test ./cmd/crashharness -run TestCrashRecovery -count=1 -v

# Fault-injection acceptance: a WAL fsync failure mid-storm must poison
# the store (refusing later writes, still serving reads) and recover with
# oracle parity on restart — no SIGKILL involved.
poison:
	$(GO) test ./cmd/crashharness -run TestPoisonRecovery -count=1 -v

# Resilience acceptance: loadgen's package tests (overload sheds with
# bounded admitted p99, exact counter conservation), then an SLO-gated
# open-loop run of the real binary against the in-process stack —
# a healthy run must shed nothing, and an overload run must shed
# without collapsing admitted latency. Synthetic 10ms service time makes
# both outcomes reproducible on a 1-CPU box.
loadgen-smoke:
	$(GO) test ./cmd/loadgen -count=1 -v
	$(GO) run ./cmd/loadgen -self -rate 100 -duration 1s -read-limit 64 -read-queue 64 \
		-self-delay 10ms -slo-min-ops 50 -slo-max-shed-frac 0 \
		$(if $(BENCH_SUMMARY),-summary '$(BENCH_SUMMARY)')
	$(GO) run ./cmd/loadgen -self -rate 400 -duration 1s -read-limit 2 -read-queue 4 \
		-self-delay 10ms -mutate-frac 0 -queue-timeout 50ms \
		-slo-min-ops 200 -slo-min-shed-frac 0.05 -slo-max-queue-depth 4 -slo-max-p99 1s \
		$(if $(BENCH_SUMMARY),-summary '$(BENCH_SUMMARY)')

# Replication acceptance: the package test builds the harness with -race
# and asserts the full failover protocol line by line — contiguous acks,
# SIGKILL of the primary mid-storm, WAL-tail salvage closing the
# durability gap, promote at exactly the acked frontier, oracle parity,
# reads surviving the primary's death, and restart of the promoted
# store. Then a direct (non-race) drive run of the same scenario, with
# the markdown report forwarded to BENCH_SUMMARY when CI sets it.
replica-smoke:
	$(GO) test ./cmd/replicaharness -run TestReplicaFailover -count=1 -v
	dir=$$(mktemp -d) && $(GO) run ./cmd/replicaharness \
		-primary-dir $$dir/primary -replica-dir $$dir/replica \
		-seed 42 -max-ops 300 -kill-after 120 \
		$(if $(BENCH_SUMMARY),-summary '$(BENCH_SUMMARY)'); \
	st=$$?; rm -rf $$dir; exit $$st

# Sharding acceptance: the package test builds the cluster harness with
# -race and storms a 4-shard router with concurrent disjoint-keyspace
# workers — final state must match a single-store oracle row for row,
# with conserved op counters (RoutedOps == sum of per-shard ObjectOps)
# — then reopens a durable 3-shard cluster to prove per-shard WAL
# recovery reconstructs cluster-wide parity. The direct drive run
# repeats the in-memory storm without the race detector.
cluster-smoke:
	$(GO) test ./cmd/clusterharness -run TestCluster -count=1 -v
	$(GO) run ./cmd/clusterharness -shards 4 -workers 4 -ops 300 -seed 42

# Static analysis beyond go vet. staticcheck is not vendored; CI pins
# go install honnef.co/go/tools/cmd/staticcheck@2025.1.1 (a released
# version, so the rule set cannot drift under CI without a code change).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# API surface gate: diff the exported API (cmd/apidump over the public
# packages) against the committed golden. Any change — breaking or
# additive — fails until api-save regenerates the golden and the diff is
# reviewed alongside the code. CI runs this in the lint job.
api:
	@$(GO) run ./cmd/apidump -pkgs '$(API_PKGS)' | diff -u $(API_GOLDEN) - \
		|| { echo; echo "exported API surface changed: review the diff above and run 'make api-save'"; exit 1; }
	@echo "API surface matches $(API_GOLDEN)"

# Regenerate the committed API golden after an intentional surface change.
api-save:
	$(GO) run ./cmd/apidump -pkgs '$(API_PKGS)' -out $(API_GOLDEN)

# Documentation gate: every exported symbol in the module — public and
# internal packages alike — must carry a doc comment, and every package
# a package comment. CI runs this in the lint job; regressions fail.
doc-gate:
	$(GO) run ./cmd/apidump -check-docs -pkgs ./...
	@echo "doc gate: every exported symbol is documented"

# Dependency gate: the served packages — the trustd binary, the Go client
# and the wire schema — must not link the paper-artifact packages (the SQL
# lowering and its in-memory SQL engine, the LP baselines, the hardness
# gadgets, the Orchestra comparison, the figure harness). Those stay
# reachable from cmd/experiments, internal/bench and the engine's parity
# tests; this check keeps them from drifting back under the server.
SERVED_PKGS := ./cmd/trustd ./client ./wire
PAPER_ONLY_PKGS := trustmap/internal/(bulk|sqlmem|lp|gadgets|orchestra|bench)
deps-gate:
	@deps="$$($(GO) list -deps $(SERVED_PKGS))" || exit 1; \
	bad="$$(echo "$$deps" | grep -E '^$(PAPER_ONLY_PKGS)$$')"; \
	if [ -n "$$bad" ]; then \
		echo "served packages ($(SERVED_PKGS)) link paper-artifact packages:"; echo "$$bad"; exit 1; \
	fi
	@echo "deps gate: $(SERVED_PKGS) link no paper-artifact package"

# Short coverage-guided fuzz of the incremental-engine parity invariant,
# the query-plan parity invariant (greedy = naive = brute force), the
# /v1/query decoder (arbitrary bytes never panic the planner or the
# executor; every rejection is an ErrBadQuery 400), the replica's
# /v1/wal frame decoder (arbitrary bytes never panic; every error is
# io.EOF or a torn stream), WAL recovery over an arbitrary segment (never
# panics; replays only CRC-valid, LSN-contiguous batches, the same ones
# Tail reads; truncation is idempotent), the snapshot decoder a bootstrapping replica feeds
# with GET /v1/snapshot (never panics; accepted files round-trip), and the
# store's binarized twin (any trust/belief mutation sequence resolves like
# a fresh compile of the store's network).
fuzz:
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzEngineParity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query -run=NONE -fuzz=FuzzQueryPlanParity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query -run=NONE -fuzz=FuzzWireQueryDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run=NONE -fuzz=FuzzStreamFrames -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run=NONE -fuzz=FuzzWALOpen -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snapshot -run=NONE -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME)
	$(GO) test . -run=NONE -fuzz=FuzzStoreTwinParity -fuzztime=$(FUZZTIME)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Everything .github/workflows/ci.yml runs except lint's staticcheck
# and the coverage report.
ci: build fmt vet api doc-gate deps-gate race smoke crash poison cluster-smoke replica-smoke loadgen-smoke bench fuzz
