# Convenience entry points; every target is plain go-toolchain underneath,
# so nothing here is required — see scripts/check.sh for the CI gauntlet.

GO ?= go

.PHONY: build test lint lint-fast check bench bench-pair

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs ptmlint (all rules plus the suppression audit) in human-readable
# form. scripts/check.sh runs the same pass with -format=sarif and archives
# the report.
lint:
	$(GO) run ./cmd/ptmlint ./...

# lint-fast runs only the syntax-level per-package rules — everything
# except the whole-program analyses (privflow taint tracking, the four
# concguard concurrency rules, and the three perfguard performance
# contracts), whose interprocedural fixpoints and compiler-diagnostic
# harvesting dominate lint wall time. Use it as the editor/pre-commit
# loop; `make lint` and scripts/check.sh remain the full gate.
lint-fast:
	$(GO) run ./cmd/ptmlint -rules=cryptorand,pow2size,errdrop,goroutinehygiene ./...

check:
	scripts/check.sh

# bench runs the repository's one benchmark, bench/ptmload, over its four
# workloads at BENCHMARK.json's run length; each run ends with its JSON
# result line. bench/README.md describes the workloads and metrics.
bench:
	for w in edge-storm upload-durable query-mix ring-mixed; do \
		$(GO) run ./bench/ptmload -workload $$w || exit 1; \
	done

# bench-pair compares the working tree with commit REV: alternating
# ptmload runs of both builds, then per workload and end-to-end metric
# the medians, quartiles, paired difference, sign test and a verdict
# (cmd/benchpair), over all four workloads at ten pairs each. For one
# workload or another pair count, run `go run ./cmd/benchpair REV
# [workload] [pairs]` directly.
bench-pair:
	$(GO) run ./cmd/benchpair $(REV)
