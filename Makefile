GO ?= go
FUZZTIME ?= 10s
COVER_FLOOR ?= 70
# Benchmark-gate harness knobs (see DESIGN.md "Performance").
BENCH_OUT ?= BENCH_after.json
BENCH_OLD ?= BENCH_baseline.json
BENCH_NEW ?= BENCH_after.json
BENCH_MAX_REGRESS ?= 10
# Wall-time gate: fail bench-diff when ns/op regresses beyond this percent
# (wide because single-iteration wall times are noisy; 0 disables).
BENCH_NS_TOLERANCE ?= 25
# Benchmarks whose baseline ns/op is below this floor (1ms) are exempt from
# the wall gate: at -benchtime=1x they are a single timer sample.
BENCH_NS_FLOOR ?= 1000000

.PHONY: all build test vet race bench bench-smoke bench-diff fuzz cover trace-roundtrip kill-resume fuzz-smoke check ci

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The concurrency-sensitive packages: atomic counters and sinks shared across
# goroutines (obs, metrics), the engine run under the runner's worker pool,
# and the runner and experiments schedulers themselves.
race:
	$(GO) test -race -timeout 30m ./internal/obs ./internal/metrics ./internal/engine ./internal/runner ./internal/experiments

# Measurement run: every benchmark once with -benchmem, converted to the
# machine-readable BENCH_*.json interchange format by cmd/benchjson. The
# paper-artifact benches are whole audited simulations, so one iteration is
# already a stable measurement; BENCH_OUT defaults to BENCH_after.json so
# `make bench && make bench-diff` gates a working tree against the committed
# BENCH_baseline.json.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -timeout 60m -run='^$$' . ./internal/... >bench_output.txt; \
	status=$$?; cat bench_output.txt; \
	if [ $$status -ne 0 ]; then rm -f bench_output.txt; exit $$status; fi
	$(GO) run ./cmd/benchjson -in bench_output.txt -o $(BENCH_OUT)
	@rm -f bench_output.txt
	@echo "bench: wrote $(BENCH_OUT)"

# One iteration per benchmark with telemetry collection on: smoke-checks that
# every bench still runs AND that the per-phase span pipeline works end to end
# (the experiment benches record into a shared registry, the snapshot lands in
# bench_telemetry.json, and benchjson renders its phase table). Wired into ci.
bench-smoke:
	G2G_BENCH_TELEMETRY=$(CURDIR)/bench_telemetry.json $(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/benchjson -phases bench_telemetry.json
	@rm -f bench_telemetry.json

# Compare two BENCH_*.json reports; exits non-zero when allocs/op on any
# shared benchmark regresses by more than BENCH_MAX_REGRESS percent, or ns/op
# by more than BENCH_NS_TOLERANCE percent (benchmarks with a baseline under
# BENCH_NS_FLOOR ns sit below one reliable timer sample at -benchtime=1x and
# are exempt from the wall gate, never the allocs gate).
bench-diff:
	$(GO) run ./cmd/benchjson -diff -max-regress $(BENCH_MAX_REGRESS) -ns-tolerance $(BENCH_NS_TOLERANCE) -ns-floor $(BENCH_NS_FLOOR) $(BENCH_OLD) $(BENCH_NEW)

# Native fuzzing over every parser/validator entry point. Go allows one
# -fuzz target per invocation, so each runs for FUZZTIME in turn. Plain
# `go test` already replays the committed seed corpora.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseBinaryTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalSigned -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParseKind -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzParamsValidate -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzParseCheckpoint -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzProofMemo -fuzztime=$(FUZZTIME) ./internal/g2gcrypto

# The fuzz recipe at a short fixed budget per target, so ci explores past the
# committed seed corpora without the full FUZZTIME cost.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

# Coverage with a per-package floor (COVER_FLOOR percent) over the library
# packages. The profile lands in cover.out for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./internal/... . >cover.txt; \
	status=$$?; cat cover.txt; \
	if [ $$status -ne 0 ]; then rm -f cover.txt; exit $$status; fi
	@awk -v floor=$(COVER_FLOOR) '/coverage:/ && $$1 == "ok" { \
		pct = $$5; sub(/%$$/, "", pct); \
		if (pct + 0 < floor) { printf "cover: %s below floor (%s%% < %d%%)\n", $$2, pct, floor; bad = 1 } \
	} END { exit bad }' cover.txt && echo "cover: all packages >= $(COVER_FLOOR)%"
	@rm -f cover.txt

# Streaming-format gate run against the real CLIs: generate a trace, take
# its canonical text form (one parse/serialize pass fixes the listing's
# millisecond precision and ordering), then require text -> binary .g2gt ->
# text to reproduce it byte for byte (the format's lossless contract; see
# DESIGN.md "Trace pipeline").
trace-roundtrip:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/tracegen -preset infocom05 -out $$dir/raw.txt && \
	$(GO) run ./cmd/traceconv -in $$dir/raw.txt -out $$dir/a.txt && \
	$(GO) run ./cmd/traceconv -in $$dir/a.txt -out $$dir/a.g2gt && \
	$(GO) run ./cmd/traceconv -in $$dir/a.g2gt -out $$dir/b.txt && \
	cmp $$dir/a.txt $$dir/b.txt; \
	status=$$?; rm -rf $$dir; \
	if [ $$status -ne 0 ]; then echo "trace-roundtrip: FAILED"; exit $$status; fi; \
	echo "trace-roundtrip: text -> binary -> text byte-identical"

# Crash-safety gate run against the real CLI: an audited preset run is
# killed (SIGTERM) mid-flight with checkpointing on, resumed from the
# flushed checkpoint, and its audit digest must be byte-identical to an
# uninterrupted reference run of the same configuration (the determinism
# contract; see DESIGN.md "Checkpoint & recovery").
kill-resume:
	@dir=$$(mktemp -d); status=1; \
	$(GO) build -o $$dir/g2gsim ./cmd/g2gsim && \
	$$dir/g2gsim -preset infocom05 -audit -seed 7 >$$dir/ref.out 2>&1 && \
	{ $$dir/g2gsim -preset infocom05 -audit -seed 7 -checkpoint-dir $$dir/ckpt >$$dir/int.out 2>&1 & \
	  pid=$$!; sleep 3; kill -TERM $$pid 2>/dev/null; wait $$pid; \
	  test -f $$dir/ckpt/run.ckpt || { echo "kill-resume: no checkpoint flushed (run finished before the kill?)"; cat $$dir/int.out; rm -rf $$dir; exit 1; }; \
	  $$dir/g2gsim -preset infocom05 -audit -seed 7 -checkpoint-dir $$dir/ckpt -resume >$$dir/res.out 2>&1 && \
	  grep digest= $$dir/ref.out >$$dir/ref.digest && \
	  grep digest= $$dir/res.out >$$dir/res.digest && \
	  cmp $$dir/ref.digest $$dir/res.digest; }; \
	status=$$?; \
	if [ $$status -ne 0 ]; then echo "kill-resume: FAILED"; cat $$dir/ref.out $$dir/int.out $$dir/res.out 2>/dev/null; fi; \
	rm -rf $$dir; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "kill-resume: audit digest identical across kill/resume"

check: build vet test race

# ci is the documented verification entry point: build, vet, the coverage
# floor, the race pass, the benchmark smoke pass, the trace-format round-trip
# gate, the kill/resume crash-safety gate, a short pass of every fuzz target,
# a quick-mode experiment smoke run through the parallel scheduler, and a
# fully audited honest run on each preset (the auditor fails the command on
# any invariant violation).
ci: build vet cover race bench-smoke trace-roundtrip kill-resume fuzz-smoke
	$(GO) run ./cmd/g2gexp -experiment secV -quick -jobs 0 >/dev/null
	$(GO) run ./cmd/g2gsim -preset infocom05 -protocol g2g-epidemic -ttl 10m -interval 60s -audit >/dev/null
	$(GO) run ./cmd/g2gsim -preset cambridge06 -protocol g2g-delegation-frequency -ttl 10m -interval 60s -audit >/dev/null
	@echo "ci: OK"
