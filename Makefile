# Development targets for the dtr reproduction. Everything is pure Go
# (stdlib only); the go toolchain is the sole dependency.

GO ?= go

.PHONY: all build test vet race bench bench-policy serve-smoke adapt-smoke load-smoke replicate-smoke ingest-smoke cluster-smoke clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The full suite under -race is slow (the solvers are CPU-bound); race
# covers the packages that actually share state across goroutines.
race:
	$(GO) test -race -timeout 30m ./internal/fft ./internal/gridfn ./internal/obs ./internal/sim ./internal/des ./internal/testbed ./internal/par ./internal/policy ./internal/direct ./internal/exper ./internal/serve ./internal/cluster ./internal/trace ./internal/adapt ./internal/ingest ./internal/load ./dist ./dist/fit ./modelspec

# Boot dtrserved on a random port, drive every endpoint plus a /metrics
# scrape, and verify a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Close the loop end to end: capture a drifting trace with the example,
# batch-refit it with dtradapt, round-trip the spec through dtrplan.
adapt-smoke:
	sh scripts/adapt_smoke.sh

# Boot dtrserved, replay an optimize+metrics mix at two request rates
# with dtrload, and validate the resulting BENCH_serve.json.
load-smoke:
	sh scripts/load_smoke.sh

# Run the straggler replication demo and drive the joint
# reallocation+replication search through dtrplan's -replicate-max flags.
replicate-smoke:
	sh scripts/replicate_smoke.sh

# Boot dtringest, emit a synthetic stream over UDP and HTTP, refit from
# the statistics snapshot with dtradapt -ingest, round-trip the spec
# through dtrplan, and verify a clean SIGTERM drain.
ingest-smoke:
	sh scripts/ingest_smoke.sh

# Boot a 3-replica dtrserved fleet, verify fleet-wide compute-once
# routing, owner-failure ejection and the snapshot-backed warm restart.
cluster-smoke:
	sh scripts/cluster_smoke.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Time the sharded policy sweep at several worker counts and record the
# result in BENCH_policy.json (see internal/policy/bench_policy_test.go).
bench-policy:
	BENCH_POLICY_OUT=$(CURDIR)/BENCH_policy.json $(GO) test -run TestWriteBenchPolicy -v ./internal/policy

clean:
	$(GO) clean ./...
