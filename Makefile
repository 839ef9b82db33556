# Tier-1 verification gate (see ROADMAP.md). `make check` is what CI
# and every PR must keep green.

GO ?= go

.PHONY: check fmt vet lint build test race bench results e2e fingerprint

check: fmt vet lint build race e2e

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the project analyzers (hotalloc, locksafe, metricname,
# spanpair, statemachine — see docs/LINT.md) through the go vet
# driver so results cache per package.
lint:
	$(GO) build -o bin/vbenchlint ./cmd/vbenchlint
	$(GO) vet -vettool=$(CURDIR)/bin/vbenchlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# e2e runs the loopback master/worker smoke: 50 jobs across two
# vbenchd workers with one SIGKILLed mid-lease — every job must drain
# exactly once (see scripts/e2e_fleet.sh).
e2e:
	./scripts/e2e_fleet.sh

# bench runs the end-to-end benchmark (bench/README.md) once per
# workload named in BENCHMARK.json, traced so every run also reports
# the per-layer metrics, and appends each result to
# bench/out/runs.jsonl.
bench:
	for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		bash bench/run.sh --workload $$w --trace 1 --record bench/out/runs.jsonl || exit 1; \
	done

# results regenerates the committed report runs: every table and
# figure (results_full.txt) and the supplementary studies
# (studies_output.txt), both at 1/12 scale × 0.8 s. The output is
# identical at any -j; CI reruns this and fails on any diff.
results:
	$(GO) build -o bin/figures ./cmd/figures
	$(GO) build -o bin/vbench ./cmd/vbench
	bin/figures -all -scale 12 -duration 0.8 > results_full.txt
	{ bin/figures -fig 2 -scale 12 -duration 0.8 && \
	for s in upload platform ablation isasweep decode economics; do \
		bin/vbench -scenario $$s -scale 12 -duration 0.8 || exit 1; \
	done; } > studies_output.txt

# fingerprint regenerates the codec-version fingerprint baked into
# every cache key (internal/cas/fingerprint_gen.go). Run after any
# change under the fingerprinted trees (internal/{codec,corpus,
# metrics,perf,video}); TestFingerprintCurrent fails until you do.
fingerprint:
	$(GO) run ./internal/cas/gen
