#!/bin/sh
# check.sh — the full verification gauntlet for the ptm repo.
#
# Runs, in order:
#   1. gofmt -l            (every tracked .go file is gofmt-clean)
#   2. go build            (everything compiles)
#   3. go vet              (toolchain static checks)
#   4. ptmlint             (repo-specific invariants; see DESIGN.md):
#                          one run of every rule — the syntax rules,
#                          privflow, the concguard concurrency rules and
#                          the perfguard hot-path contracts — archiving a
#                          SARIF 2.1.0 report in which every result carries
#                          its ruleId (perfguard results with escape-flow
#                          codeFlows)
#   5. go test -race       (unit + integration tests under the race
#                          detector, -shuffle=on to surface order
#                          dependence between tests)
#   6. race stress smoke   (the WAL, RSU, DSRC fan-in, stripe,
#                          estimate-cache, checkpoint-vs-ingest,
#                          tiered-store and fence-vs-ingest-and-freeze
#                          concurrency tests again under -race -count=2 —
#                          the dynamic complement of the static concguard
#                          contracts)
#   7. fuzz smoke          (a few seconds per fuzz target, seeds + mutation)
#   8. traced pipeline     (each bench/ptmload workload once at full scale
#                          with -trace 1: answers, exact counts and the
#                          traced blocking path against the untraced one)
#   9. crash smoke         (kill -9 a WAL-backed centrald mid-stream)
#  10. out-of-core smoke   (tiered centrald over a 10x-budget dataset:
#                          peak-RSS bound + estimates identical to the
#                          all-resident daemon)
#  11. cluster smoke       (3-node cluster, R=2: kill -9 the partition
#                          leader mid-ingest, fail over, revive, join,
#                          drain — zero acked-record loss and estimates
#                          byte-identical to a single-node reference)
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target fuzzing budget for the smoke stage (default 5s)
#
# The SARIF report lands in $ARTIFACT_DIR/ptmlint.sarif (default:
# a .artifacts directory at the repo root, git-ignored).
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${1:-5s}"

step() {
	printf '==> %s\n' "$*"
}

step "gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	printf 'gofmt: the following files need formatting:\n%s\n' "$unformatted" >&2
	exit 1
fi

step "go build ./..."
go build ./...

step "go vet ./..."
go vet ./...

step "ptmlint ./..."
ARTIFACT_DIR="${ARTIFACT_DIR:-.artifacts}"
mkdir -p "$ARTIFACT_DIR"
# The SARIF report is written even when findings exist (exit 1), so the
# artifact documents exactly what failed the gate.
if ! go run ./cmd/ptmlint -format=sarif ./... > "$ARTIFACT_DIR/ptmlint.sarif"; then
	status=$?
	step "ptmlint findings (see $ARTIFACT_DIR/ptmlint.sarif)"
	go run ./cmd/ptmlint ./... || true
	exit "$status"
fi

step "go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

step "race stress smoke (-race -count=2, WAL group commit + RSU/DSRC striped ingest + estimate cache + checkpoint racing ingest + tiered store + fence racing ingest and freeze)"
go test -race -count=2 -run '^TestGroupCommitConcurrentAppends$' ./internal/wal/
go test -race -count=2 -run '^(TestConcurrentReportStorm|TestReportsRaceRotation|TestDifferentialAtomicVsSequential)$' ./internal/rsu/
go test -race -count=2 -run '^TestConcurrentSendFanIn$' ./internal/dsrc/
go test -race -count=2 -run '^TestPickAndSum$' ./internal/stripe/
go test -race -count=2 -run '^(TestEstCacheConcurrentQueryIngest|TestDurableCheckpointRacingIngest)$' ./internal/central/
go test -race -count=2 -run '^(TestTieredConcurrentSoak|TestTieredFreezeRacingRetention|TestFenceNamesRecordSet)$' ./internal/store/

# Archive the committed benchmark baselines (regenerate with `make
# bench-json` / `make bench-ingest`) next to the lint report so CI
# surfaces them all.
for bench in BENCH_*.json; do
	[ -f "$bench" ] || continue
	step "archiving $bench -> $ARTIFACT_DIR/"
	cp "$bench" "$ARTIFACT_DIR/$bench"
done

step "fuzz smoke ($FUZZTIME per target)"
# Each fuzz target runs alone: `go test -fuzz` accepts a single match.
go test -run=NONE -fuzz='^FuzzUnmarshal$' -fuzztime="$FUZZTIME" ./internal/bitmap/
go test -run=NONE -fuzz='^FuzzFusedJoin$' -fuzztime="$FUZZTIME" ./internal/bitmap/
go test -run=NONE -fuzz='^FuzzFusedJoinWide$' -fuzztime="$FUZZTIME" ./internal/bitmap/
go test -run=NONE -fuzz='^FuzzUnmarshal$' -fuzztime="$FUZZTIME" ./internal/record/
go test -run=NONE -fuzz='^FuzzRoundTrip$' -fuzztime="$FUZZTIME" ./internal/record/
go test -run=NONE -fuzz='^FuzzIndex$' -fuzztime="$FUZZTIME" ./internal/vhash/
go test -run=NONE -fuzz='^FuzzReadFrame$' -fuzztime="$FUZZTIME" ./internal/transport/
go test -run=NONE -fuzz='^FuzzUploadBatch$' -fuzztime="$FUZZTIME" ./internal/transport/
go test -run=NONE -fuzz='^FuzzReplay$' -fuzztime="$FUZZTIME" ./internal/wal/
go test -run=NONE -fuzz='^FuzzSnapshotLoad$' -fuzztime="$FUZZTIME" ./internal/central/
go test -run=NONE -fuzz='^FuzzSegmentLoad$' -fuzztime="$FUZZTIME" ./internal/store/

step "traced pipeline smoke (each ptmload workload once, full scale, -trace 1)"
# The traced run checks every answer, the exact counts and each request
# kind's blocking path against the untraced pass of the same run, so a
# change that sends traced and untraced requests down different paths
# fails here. The go test suite runs these workloads scaled down, where
# timing checks are excused. One workload at a time: each sizes itself
# to the whole machine.
for workload in edge-storm upload-durable query-mix ring-mixed; do
	go run ./bench/ptmload -workload "$workload" -seconds 2 -trace 1 -dir "$ARTIFACT_DIR/ptmload"
done

step "crash-recovery smoke (WAL-backed centrald, kill -9 mid-stream)"
scripts/crashsmoke.sh

step "out-of-core smoke (tiered centrald, 10x-budget dataset, RSS bound + estimate equality)"
scripts/oocsmoke.sh

step "cluster smoke (3-node cluster, kill -9 + failover + revive + join + drain)"
scripts/clustersmoke.sh

step "all checks passed"
