# Convenience targets for the radiocolor reproduction.

GO ?= go

.PHONY: all build test fmt-check short race bench e2e fuzz chaos churn medium experiments examples serve replicas clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# Fails, listing the files, when any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end benchmark smoke: a 5 s run of each workload (the same runs
# as CI's e2ebench job); each must report a correct verdict and no
# failed operations. See e2ebench/README.md for the full benchmark.
e2e:
	@set -e; for w in udg-uniform-250 colord-mix; do \
		last=$$(bash e2ebench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct":true'; \
		echo "$$last" | grep -q '"failed":0'; \
	done

fuzz:
	$(GO) test -fuzz FuzzReadGraph -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadDeployment -fuzztime 30s ./internal/topology/
	$(GO) test -fuzz FuzzParseProfile -fuzztime 30s ./internal/fault/
	$(GO) test -fuzz FuzzParseSpec -fuzztime 30s ./internal/medium/
	$(GO) test -fuzz FuzzParseSchedule -fuzztime 30s ./internal/churn/
	$(GO) test -fuzz FuzzReadTrace -fuzztime 30s ./internal/topology/
	$(GO) test -fuzz FuzzParseChurn -fuzztime 30s .

# Chaos smoke: fault-injection property tests under the race detector.
chaos:
	$(GO) test -race -run 'TestSurvivorsProperlyColoredUnderFaults|TestSINRSurvivorsProperlyColored' ./internal/verify/
	$(GO) test -race -run 'TestFault' ./internal/radio/ ./internal/fault/

# Dynamic-topology suite: the churn schedule/plan layer, the engine's
# churn seam, and the present-subgraph chaos property test under every
# wakeup schedule — all under the race detector.
churn:
	$(GO) test -race ./internal/churn/ ./internal/baseline/cds/
	$(GO) test -race -run 'TestChurn' ./internal/radio/ .
	$(GO) test -race -run 'TestPresentProperlyColoredUnderChurn' ./internal/verify/

# Reception-model suite: the medium seam, the SINR/multichannel engines,
# the differential tests against the builtin kernel, and the FP baseline.
medium:
	$(GO) test -race ./internal/medium/ ./internal/baseline/fp/
	$(GO) test -race -run 'TestMedium|TestSINR|TestGraphMedium|TestMultiChannel' ./internal/radio/

# Regenerate every table recorded in EXPERIMENTS.md (several minutes).
experiments:
	$(GO) run ./cmd/experiments -trials 3 -size 1.0 -seed 1

# Run the coloring-simulation daemon (see README "Running as a service").
# Add -store DIR to persist the backlog across restarts.
serve:
	$(GO) run ./cmd/colord -addr :8080 -queue 64

# Replica-group suite: two servers sharing one durable store split a
# backlog with zero double-executions, survive crash/restart chaos, and
# resume a dead replica's leases — all under the race detector.
replicas:
	$(GO) test -race -run 'TestTwoReplicasShareBacklog|TestBootResumeCompletesBacklog|TestDurableShutdownReleasesInflight|TestConcurrentSubmitAtFullQueue' -v ./internal/serve/
	$(GO) test -race -run 'TestChaosTwoReplicasCrashRestart' -v ./internal/store/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tdma
	$(GO) run ./examples/obstacles
	$(GO) run ./examples/asyncwakeup
	$(GO) run ./examples/compaction
	$(GO) run ./examples/datacollection

clean:
	$(GO) clean ./...
