GO ?= go

.PHONY: check vet lint build test race fuzz bench clean

## check: the full gate — vet, lint, build, the race-enabled test
## suite, and a short fuzz pass over every fuzz target.
check: vet lint build race fuzz

vet:
	$(GO) vet ./...

## lint: repo-specific hygiene rules (see cmd/mlpalint).
lint:
	$(GO) run ./cmd/mlpalint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: short fuzzing pass — 20s per target ('go test -fuzz' takes
## exactly one matching target per invocation, hence one run each).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzAssembleRoundTrip -fuzztime=$(FUZZTIME) ./internal/prog/
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) ./internal/staticanalysis/
	$(GO) test -fuzz=FuzzRunVsStep -fuzztime=$(FUZZTIME) ./internal/emu/
	$(GO) test -fuzz=FuzzLiveness -fuzztime=$(FUZZTIME) ./internal/staticanalysis/dataflow/
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzCkptRoundTrip -fuzztime=$(FUZZTIME) ./internal/ckpt/
	$(GO) test -fuzz=FuzzWarmTee -fuzztime=$(FUZZTIME) ./internal/cpu/

## bench: machine-readable perf/accuracy snapshot (BENCH_<date>.json).
bench:
	$(GO) run ./cmd/mlpa bench -size tiny

clean:
	rm -f BENCH_*.json
