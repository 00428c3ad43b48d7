GO ?= go
FUZZTIME ?= 10s
COVER_FLOOR ?= 70

.PHONY: all build test vet race bench-smoke perfbench-build fuzz cover trace-roundtrip kill-resume fuzz-smoke check ci

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

# One iteration of every benchmark: a smoke check that each still runs.
# Performance itself is measured by perfbench/ (see BENCHMARK.json).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# perfbench/ is its own Go module, so `go build ./...` never compiles it;
# vet it here so a break in the library API it uses fails ci, not the
# benchmark run.
perfbench-build:
	cd perfbench && $(GO) vet .

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
# contract; see DESIGN.md "Checkpoint & recovery"). It runs once per G2G
# protocol: honest G2G Epidemic, and G2G Delegation against cheaters.
KILL_RESUME_CONFIGS = \
	"-preset infocom05 -audit -seed 7" \
	"-preset infocom05 -protocol g2g-delegation-frequency -deviants 5 -deviation cheater -interval 1s -audit -seed 7"

kill-resume:
	@dir=$$(mktemp -d); status=0; \
	$(GO) build -o $$dir/g2gsim ./cmd/g2gsim || status=1; \
	for args in $(KILL_RESUME_CONFIGS); do \
	  [ $$status -eq 0 ] || break; \
	  rm -rf $$dir/ckpt; \
	  $$dir/g2gsim $$args >$$dir/ref.out 2>&1 && \
	  { $$dir/g2gsim $$args -checkpoint-dir $$dir/ckpt >$$dir/int.out 2>&1 & \
	    pid=$$!; sleep 3; kill -TERM $$pid 2>/dev/null; wait $$pid; \
	    test -f $$dir/ckpt/run.ckpt || { echo "kill-resume: no checkpoint flushed (run finished before the kill?)"; false; } && \
	    $$dir/g2gsim $$args -checkpoint-dir $$dir/ckpt -resume >$$dir/res.out 2>&1 && \
	    grep digest= $$dir/ref.out >$$dir/ref.digest && \
	    grep digest= $$dir/res.out >$$dir/res.digest && \
	    cmp $$dir/ref.digest $$dir/res.digest; }; \
	  status=$$?; \
	  if [ $$status -ne 0 ]; then echo "kill-resume: FAILED: g2gsim $$args"; cat $$dir/ref.out $$dir/int.out $$dir/res.out 2>/dev/null; \
	  else echo "kill-resume: audit digest identical across kill/resume: g2gsim $$args ($$(cat $$dir/res.digest))"; fi; \
	done; \
	rm -rf $$dir; \
	exit $$status

check: build vet test race

# ci is the documented verification entry point: build, vet, the coverage
# floor, the race pass, the benchmark smoke pass, the benchmark module's
# build, the trace-format round-trip gate, the kill/resume crash-safety gate, a short pass of every fuzz target,
# a quick-mode experiment smoke run through the parallel scheduler, and a
# fully audited honest run on each preset (the auditor fails the command on
# any invariant violation).
ci: build vet cover race bench-smoke perfbench-build trace-roundtrip kill-resume fuzz-smoke
	$(GO) run ./cmd/g2gexp -experiment secV -quick -jobs 0 >/dev/null
	$(GO) run ./cmd/g2gsim -preset infocom05 -protocol g2g-epidemic -ttl 10m -interval 60s -audit >/dev/null
	$(GO) run ./cmd/g2gsim -preset cambridge06 -protocol g2g-delegation-frequency -ttl 10m -interval 60s -audit >/dev/null
	@echo "ci: OK"
