# Tier-1 verification: build, vet, trust-boundary lint, full tests.
# `make verify` is the bar every change must clear.

GO ?= go

.PHONY: verify fmt build vet lint test race fuzz-smoke ladder bench-smoke bench microbench

verify: fmt build vet lint test

# gofmt over the whole tree, fixtures under testdata included: any file it
# would rewrite is listed and fails the build.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# On failure aelint prints a per-analyzer finding count summary to stderr
# after the diagnostics, so a red `make verify` shows where the findings
# concentrate without re-running anything. Set AELINT_JSON=<path> to also
# write the machine-readable findings report (per-analyzer counts and
# durations); CI uploads it as an artifact. Every analyzer must finish
# within AELINT_BUDGET of wall time across the whole tree — the suite is
# meant to run on every commit, and a pass that quietly becomes quadratic
# fails the build rather than the developers' patience.
AELINT_BUDGET ?= 30s

lint:
	$(GO) run ./cmd/aelint -budget $(AELINT_BUDGET) $(if $(AELINT_JSON),-json $(AELINT_JSON)) $(if $(AELINT_GITHUB),-github) ./...

test:
	$(GO) test ./...

# The whole tree under the race detector. This used to cover only the
# enclave / storage / engine packages; the driver cache, key-store provider
# and TPC-C harness are just as concurrent, and the narrow list let a page
# load vs frame reader race slip through once already.
race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing per byte-level decoder on the read,
# redo and wire paths, of random batches into the B-tree against a
# sorted-slice shadow, of arbitrary envelopes into a reused cell opener
# against a standard-library oracle, and of random keys and seek bounds into
# the ghost pass's pruning against a byte-ordered tree, as package:target
# pairs (go test accepts one package and one -fuzz target per run). A crasher is written to the package's
# testdata/fuzz and fails the build.
FUZZ_TARGETS = internal/storage:FuzzDecodeHeapRows internal/storage:FuzzDecodeIndexEntries \
	internal/storage:FuzzLoadWAL internal/engine:FuzzDecodeRow internal/tds:FuzzDecodeCellRows \
	internal/tds:FuzzDecodeRequest internal/tds:FuzzDecodeResponse \
	internal/repl:FuzzDecodeReplMessage internal/exprsvc:FuzzDeserializeProgram \
	internal/aesql:FuzzParseDSN internal/engine:FuzzParse internal/btree:FuzzInsertBatch \
	internal/aecrypto:FuzzOpen internal/engine:FuzzGhostBounds

fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test ./$${t%%:*} -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 10s || exit 1; \
	done

# The benchmark's per-layer ladder (bench/ladder.go): one ns/op + allocs/op
# rung per exported entry point of every layer, at full size. It drives
# Enclave.Compare and both enclave-ordered tree rungs through the real
# enclave, so a change to the API surface bench/ compiles against, or a
# nested enclave submit that only deadlocks at scale, breaks here first.
ladder:
	$(GO) run ./bench -ladder

# A short traced run of the benchmark (-trace 1: per-layer attribution and
# the ladder) on the bypass workload, the encrypted write workload and the
# encrypted read workload — the one whose table outgrows its buffer pool,
# so the only run that evicts and recycles frames. It exits non-zero on a
# ladder-rung error, attributed time below 90 % or tracing overhead above
# 10 %, trace-ring drops, a failed correctness gate or replay check, or a
# declared metric left unemitted — failures an untraced test run does not
# see.
bench-smoke:
	for w in tpcc_pt enc_ingest enc_range; do \
		$(GO) run ./bench -workload $$w -trace 1 -seconds 3 || exit 1; \
	done

# Benchmark artifacts: per-transaction-type latency percentiles and enclave
# boundary traffic (BENCH_tpcc.json), steady-state replication lag, redo
# throughput and failover timing under the same workload (BENCH_repl.json),
# the §4.6 batching ablation — enclave crossings per transaction vs the
# engine's rows-per-batch knob (BENCH_batch.json) — the tracing
# experiment: per-statement tracing overhead at 1% sampling plus
# per-transaction-type span attribution (BENCH_trace.json) — and the client
# pool experiment: Fig. 8 per-connection setup cost amortization plus
# LSN-bounded replica read scaling at 0/1/2 replicas (BENCH_pool.json).
bench:
	$(GO) run ./cmd/tpccbench -experiment bench -duration 2s -out BENCH_tpcc.json
	$(GO) run ./cmd/tpccbench -experiment repl -duration 2s -repl-out BENCH_repl.json
	$(GO) run ./cmd/tpccbench -experiment batch -batch-out BENCH_batch.json
	$(GO) run ./cmd/tpccbench -experiment trace -duration 2s -trace-out BENCH_trace.json
	$(GO) run ./cmd/tpccbench -experiment pool -duration 2s -pool-out BENCH_pool.json
	$(GO) run ./cmd/tpccbench -experiment write -duration 2s -write-out BENCH_write.json

microbench:
	$(GO) test -bench=. -benchmem .
