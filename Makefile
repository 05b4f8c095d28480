# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

# The perf-trajectory file emitted by `make bench` (one per perf PR).
BENCH_PR ?= 10
BENCH_TIME ?= 300ms
# bench-compare reruns the baseline's benchmarks at this benchtime; short
# keeps the CI gate fast, the 25% threshold absorbs the extra noise.
COMPARE_TIME ?= 200ms

.PHONY: build test race bench bench-smoke bench-compare fuzz-smoke scenarios daemon soak soak-durable

build:
	go build ./...

test:
	go test ./...

# The sharded store's stress/property tests and the live ingest pipeline are
# the main race surfaces; run them with real scheduler parallelism even on
# constrained runners.
race:
	GOMAXPROCS=4 go test -race . ./internal/live/... ./internal/gossip/... \
		./internal/engine/... ./internal/store/...

# bench runs the engine/store/wire/live hot-path benchmarks and writes the
# machine-readable trajectory file BENCH_$(BENCH_PR).json.
bench:
	go run ./cmd/benchjson -benchtime $(BENCH_TIME) -out BENCH_$(BENCH_PR).json

# bench-smoke is the CI guard: every benchmark compiles and runs once,
# race-enabled, so the perf baseline cannot rot.
bench-smoke:
	go test -race -run '^$$' -bench . -benchtime=1x \
		./internal/engine/ ./internal/store/ ./internal/wire/ ./internal/live/ \
		./internal/wal/ .

# bench-compare is the CI perf gate: rerun the committed baseline's
# benchmarks and fail if ns/op or allocs/op regress more than 25% anywhere.
bench-compare:
	go run ./cmd/benchjson compare -baseline BENCH_$(BENCH_PR).json \
		-benchtime $(COMPARE_TIME)

# fuzz-smoke runs every fuzzer for FUZZ_TIME each: the wire envelope and
# frame-stream decoders, WAL recovery, the snapshot decoder, and the PF
# schedule parser — every decoder that reads bytes from a peer, a client,
# or a disk. A failing input is written under the package's testdata/fuzz
# and replays in plain `go test` once committed.
FUZZ_TIME ?= 10s
FUZZERS = \
	internal/wire:FuzzBinaryDecode \
	internal/wire:FuzzBinaryEnvelope \
	internal/wire:FuzzDecode \
	internal/wal:FuzzWALRecover \
	internal/store:FuzzSnapshotDecode \
	internal/pfparse:FuzzParse

fuzz-smoke:
	@set -e; for f in $(FUZZERS); do \
		pkg=$${f%%:*}; name=$${f##*:}; \
		echo "fuzz $$pkg $$name ($(FUZZ_TIME))"; \
		go test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZ_TIME) ./$$pkg/; \
	done

# scenarios runs the deterministic fault-injection matrix across the CI
# seeds, failing on any invariant violation.
scenarios:
	go run ./cmd/scenarios -seeds 1,2,3 -out scenario-results

# daemon builds the serving binary (HTTP client edge + /metrics over one
# live replica) into ./bin.
daemon:
	go build -o bin/pushpulld ./cmd/pushpulld

# soak is the short multi-process chaos soak CI runs: 3 real pushpulld
# processes on loopback, each with a write-ahead log, sustained HTTP
# traffic, one SIGKILL + recovery from the victim's WAL alone,
# scraped-state invariants, race-enabled. Set
# SOAK_OUT=<file> to keep the final scraped states as JSON. Drop -short
# for the full version (5 processes, 2 kill cycles, a joining member).
soak:
	go test -race -short -v -run 'TestClusterSoak$$' ./internal/cluster/

# soak-durable is the durability chaos soak: every member runs with a
# write-ahead log, a victim is SIGKILLed while a write burst is in flight,
# its WAL tail is torn, and it must recover from disk alone holding every
# write it acknowledged. Drop -short for more members and kill cycles.
soak-durable:
	go test -race -short -v -run TestClusterSoakDurable ./internal/cluster/
