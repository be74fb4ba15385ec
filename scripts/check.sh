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
#   6. examples            (each program under examples/ once, its stdout
#                          against scripts/testdata/examples/<name>.txt;
#                          PTM_UPDATE_GOLDEN=1 rewrites the goldens)
#   7. estimator bits      (ptmbench -exp all -runs 20, its stdout against
#                          scripts/testdata/ptmbench_runs20.txt: every
#                          paper table and figure the evaluation CLI
#                          prints, bit for bit; PTM_UPDATE_GOLDEN=1
#                          rewrites the golden)
#   8. race stress smoke   (the WAL group commit and batch commit, RSU
#                          striped ingest, controller spool and spool
#                          zero tail, DSRC fan-in, stripe, estimate-cache,
#                          checkpoint-vs-ingest, duplicate ingest, batch
#                          publish-on-commit,
#                          concurrent ship rounds, resync-vs-ingest,
#                          tiered-store, fence-vs-ingest-and-freeze and
#                          peer-connection-cache (calls racing Close)
#                          concurrency tests again under -race -count=2 —
#                          the dynamic complement of the static concguard
#                          contracts)
#   9. fuzz smoke          (a few seconds per fuzz target, seeds + mutation)
#  10. traced pipeline     (each bench/ptmload workload once at full scale
#                          with -trace 1: answers, exact counts and the
#                          traced blocking path against the untraced one;
#                          output in $ARTIFACT_DIR/ptmload/<workload>.txt)
#  11. exact-count gate    (the counts those runs print that repeat run to
#                          run, against scripts/testdata/counts.golden;
#                          PTM_UPDATE_GOLDEN=1 rewrites the golden values;
#                          then ceilings on counts that vary but stay
#                          bounded: one fsync per upload batch)
#  12. crash smoke         (kill -9 a WAL-backed centrald mid-stream)
#  13. out-of-core smoke   (tiered centrald over a 10x-budget dataset:
#                          peak-RSS bound + estimates identical to the
#                          all-resident daemon)
#  14. cluster smoke       (3-node cluster, R=2: kill -9 the partition
#                          leader mid-ingest, fail over, revive, join,
#                          drain, remove and rejoin at a new address —
#                          zero acked-record loss and estimates
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

step "examples (stdout of each program against scripts/testdata/examples)"
# Every example is deterministic (seeded generators and radio loss), so
# its output is a golden: a change that moves an estimate or breaks a
# program fails here. PTM_UPDATE_GOLDEN=1 rewrites the goldens.
EXAMPLES_DIR="$ARTIFACT_DIR/examples"
mkdir -p "$EXAMPLES_DIR"
for example in citynet commutergrid odmatrix privacysweep quickstart siouxfalls; do
	go run "./examples/$example" > "$EXAMPLES_DIR/$example.txt"
	if [ "${PTM_UPDATE_GOLDEN:-}" = 1 ]; then
		cp "$EXAMPLES_DIR/$example.txt" "scripts/testdata/examples/$example.txt"
	elif ! diff -u "scripts/testdata/examples/$example.txt" "$EXAMPLES_DIR/$example.txt"; then
		printf 'examples: %s output moved; if the change means to move it, rerun with PTM_UPDATE_GOLDEN=1 and commit the golden\n' "$example" >&2
		exit 1
	fi
done

step "estimator bits (ptmbench -exp all -runs 20 against scripts/testdata/ptmbench_runs20.txt)"
# Every experiment is seeded, so the printed estimates are a golden: a
# change to a join, an estimator or a simulation that moves one bit of
# any table or figure fails here. results_ptmbench.txt is the same
# output at -runs 400 (minutes, not seconds), regenerated by hand.
go run ./cmd/ptmbench -exp all -runs 20 > "$ARTIFACT_DIR/ptmbench_runs20.txt"
if [ "${PTM_UPDATE_GOLDEN:-}" = 1 ]; then
	cp "$ARTIFACT_DIR/ptmbench_runs20.txt" scripts/testdata/ptmbench_runs20.txt
elif ! cmp scripts/testdata/ptmbench_runs20.txt "$ARTIFACT_DIR/ptmbench_runs20.txt"; then
	diff -u scripts/testdata/ptmbench_runs20.txt "$ARTIFACT_DIR/ptmbench_runs20.txt" | head -40 >&2 || true
	printf 'estimator bits: ptmbench output moved; if the change means to move it, rerun with PTM_UPDATE_GOLDEN=1 and commit the golden\n' >&2
	exit 1
fi

step "race stress smoke (-race -count=2, WAL group commit and batch commit + RSU/DSRC striped ingest + RSU controller spool + spool zero tail + estimate cache + checkpoint racing ingest + duplicate ingest + batch publish on commit + concurrent ship rounds + full resync racing ingest + tiered store + fence racing ingest and freeze + peer connections racing Close)"
go test -race -count=2 -run '^(TestGroupCommitConcurrentAppends|TestConcurrentBatchesAtMostOneSyncEach)$' ./internal/wal/
go test -race -count=2 -run '^(TestConcurrentReportStorm|TestReportsRaceRotation|TestDifferentialAtomicVsSequential|TestControllerSpoolsThroughOutage|TestSpoolZeroTailDelivers)$' ./internal/rsu/
go test -race -count=2 -run '^TestConcurrentSendFanIn$' ./internal/dsrc/
go test -race -count=2 -run '^TestPickAndSum$' ./internal/stripe/
go test -race -count=2 -run '^(TestEstCacheConcurrentQueryIngest|TestDurableCheckpointRacingIngest|TestDurableConcurrentDuplicateLogsOnce|TestDurableBatchPublishesOnCommit)$' ./internal/central/
go test -race -count=2 -run '^(TestConcurrentShipRoundsShipOnce|TestFullResyncShipsInFlightIngest)$' ./internal/cluster/
go test -race -count=2 -run '^(TestTieredConcurrentSoak|TestTieredFreezeRacingRetention|TestFenceNamesRecordSet)$' ./internal/store/
go test -race -count=2 -run '^TestPeersConcurrentCallsAndClose$' ./internal/transport/

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
go test -run=NONE -fuzz='^FuzzDecodeFetch$' -fuzztime="$FUZZTIME" ./internal/cluster/

step "traced pipeline smoke (each ptmload workload once, full scale, -trace 1)"
# The traced run checks every answer, the exact counts and each request
# kind's blocking path against the untraced pass of the same run, so a
# change that sends traced and untraced requests down different paths
# fails here. The go test suite runs these workloads scaled down, where
# timing checks are excused. One workload at a time: each sizes itself
# to the whole machine. Each run's output goes to a file (not a pipe, so
# its exit status is not lost) for the count gate below.
PTMLOAD_DIR="$ARTIFACT_DIR/ptmload"
mkdir -p "$PTMLOAD_DIR"
for workload in edge-storm upload-durable query-mix ring-mixed; do
	status=0
	go run ./bench/ptmload -workload "$workload" -seconds 2 -trace 1 -dir "$PTMLOAD_DIR" \
		> "$PTMLOAD_DIR/$workload.txt" || status=$?
	cat "$PTMLOAD_DIR/$workload.txt"
	[ "$status" -eq 0 ] || exit "$status"
done

step "exact-count gate (traced runs against scripts/testdata/counts.golden)"
# Each golden line is "workload metric value": a count the traced run of
# that workload prints identically every time (an fsync, a fetched byte,
# a folded word, a cache hit). A change that moves one fails here; a
# change meant to move one reruns this script with PTM_UPDATE_GOLDEN=1,
# which rewrites the values, and commits the diff as its evidence.
golden=scripts/testdata/counts.golden
updated=""
mismatches=0
while read -r workload metric want; do
	got="$(awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }' "$PTMLOAD_DIR/$workload.txt")"
	updated="$updated$workload $metric ${got:-missing}
"
	if [ "$got" != "$want" ]; then
		printf 'count gate: %s %s = %s, golden %s\n' "$workload" "$metric" "${got:-missing}" "$want" >&2
		mismatches=$((mismatches + 1))
	fi
done < "$golden"
if [ "${PTM_UPDATE_GOLDEN:-}" = 1 ]; then
	printf '%s' "$updated" > "$golden"
	step "rewrote $golden"
elif [ "$mismatches" -ne 0 ]; then
	printf 'count gate: %d exact counts moved; if the change means to move them, rerun with PTM_UPDATE_GOLDEN=1 and commit %s\n' "$mismatches" "$golden" >&2
	exit 1
fi
# Ceilings: counts that vary run to run but never past a bound. Each
# upload-durable UploadBatch carries 8 records and is committed by its
# last record's one fsync; with no rotations (gated above) and no
# duplicates in the workload, wal.syncs_per_append cannot exceed 1/8.
while read -r workload metric ceiling; do
	got="$(awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }' "$PTMLOAD_DIR/$workload.txt")"
	if ! awk -v g="$got" -v c="$ceiling" 'BEGIN { exit !(g != "" && g + 0 <= c + 0) }'; then
		printf 'ceiling gate: %s %s = %s, ceiling %s\n' "$workload" "$metric" "${got:-missing}" "$ceiling" >&2
		exit 1
	fi
done <<'EOF'
upload-durable wal.syncs_per_append 0.125
EOF

step "crash-recovery smoke (WAL-backed centrald, kill -9 mid-stream)"
scripts/crashsmoke.sh

step "out-of-core smoke (tiered centrald, 10x-budget dataset, RSS bound + estimate equality)"
scripts/oocsmoke.sh

step "cluster smoke (3-node cluster, kill -9 + failover + revive + join + drain + rejoin at a new address)"
scripts/clustersmoke.sh

step "all checks passed"
