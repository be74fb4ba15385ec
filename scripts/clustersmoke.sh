#!/bin/sh
# clustersmoke.sh — docker-free end-to-end smoke for the cluster plane
# (run standalone or via scripts/check.sh).
#
# The scenario, mirroring DESIGN.md §15:
#   1. A single-node reference centrald and a 3-node cluster (R=2) start
#      side by side; ptmcluster init installs the ring.
#   2. The same deterministic workload is uploaded to both; a second,
#      paced workload drips into the cluster while the leader of its
#      partition is killed with SIGKILL mid-ingest.
#   3. ptmcluster failover promotes the most-caught-up survivor; the
#      paced uploader retries through the router and finishes without
#      losing a single acked record.
#   4. The victim restarts on its own WAL, is revived, and re-ships;
#      ptmcluster wait proves every owning replica converged.
#   5. Every estimator (volume, point, p2p same- and cross-partition) is
#      diffed byte-for-byte against the single-node reference.
#   6. A fourth node joins, an original node drains, and the diff is
#      re-run: rebalancing moved partitions without moving estimates.
#   7. The drained node is removed, restarts on a new port over its own
#      WAL and rejoins at the new address (a host move); once it is
#      promoted the diff is re-run.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d "${TMPDIR:-/tmp}/ptm-clustersmoke.XXXXXX")"
PID_ref="" PID_a="" PID_b="" PID_c="" PID_d=""
cleanup() {
	for p in "$PID_ref" "$PID_a" "$PID_b" "$PID_c" "$PID_d"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
	for p in "$PID_ref" "$PID_a" "$PID_b" "$PID_c" "$PID_d"; do
		[ -n "$p" ] && wait "$p" 2>/dev/null || true
	done
	rm -rf "$TMP" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

say() { printf 'clustersmoke: %s\n' "$*"; }

say "building binaries"
go build -o "$TMP/centrald" ./cmd/centrald
go build -o "$TMP/ptmcluster" ./cmd/ptmcluster
go build -o "$TMP/ptmquery" ./cmd/ptmquery
go build -o "$TMP/trafficgen" ./cmd/trafficgen

BASE=$((18400 + $$ % 2000))
ADDR_ref="127.0.0.1:$BASE"
ADDR_a="127.0.0.1:$((BASE + 1))"
ADDR_b="127.0.0.1:$((BASE + 2))"
ADDR_c="127.0.0.1:$((BASE + 3))"
ADDR_d="127.0.0.1:$((BASE + 4))"
ADDR_moved="127.0.0.1:$((BASE + 5))"
SEEDS="$ADDR_a,$ADDR_b,$ADDR_c"
PERIODS=6

addr_of() { eval "printf '%s' \"\$ADDR_$1\""; }
pid_of() { eval "printf '%s' \"\$PID_$1\""; }

# start_node id — start (or restart) a cluster member on its own WAL.
start_node() {
	id="$1"
	"$TMP/centrald" -listen "$(addr_of "$id")" -wal "$TMP/wal-$id" \
		-cluster-node "$id" -ship-interval 100ms 2>>"$TMP/$id.log" &
	eval "PID_$id=$!"
	wait_up "$(addr_of "$id")" "$id"
}

wait_up() {
	i=0
	while ! "$TMP/ptmquery" -central "$1" locations >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			say "$2 did not come up (log follows)"; cat "$TMP/$2.log"; exit 1
		fi
		sleep 0.1
	done
}

# query_all clientargs outfile — every estimator over the whole dataset.
# clientargs is intentionally word-split: it is "-central ADDR" or
# "-cluster SEEDS".
query_all() {
	ca="$1"
	out="$2"
	{
		# shellcheck disable=SC2086
		"$TMP/ptmquery" $ca locations
		for loc in 1 2 3 4; do
			"$TMP/ptmquery" $ca periods -loc "$loc"
			p=1
			while [ "$p" -le "$PERIODS" ]; do
				"$TMP/ptmquery" $ca volume -loc "$loc" -period "$p"
				p=$((p + 1))
			done
			"$TMP/ptmquery" $ca point -loc "$loc" -periods 1,2,3,4,5,6
		done
		for pair in "1:2" "3:4" "1:3" "2:4"; do
			la="${pair%:*}"
			lb="${pair#*:}"
			"$TMP/ptmquery" $ca p2p -loc "$la" -loc2 "$lb" -periods 1,2,3,4,5,6
		done
	} >"$out"
}

diff_estimates() {
	query_all "-central $ADDR_ref" "$TMP/ref.out"
	query_all "-cluster $SEEDS" "$TMP/cluster.out"
	if ! diff -u "$TMP/ref.out" "$TMP/cluster.out"; then
		say "cluster estimates diverge from the single-node reference ($1)"
		for id in a b c d; do
			[ -f "$TMP/$id.log" ] && { say "$id log:"; cat "$TMP/$id.log"; }
		done
		exit 1
	fi
	say "estimates bit-identical to single-node reference ($1)"
}

say "starting single-node reference on $ADDR_ref"
"$TMP/centrald" -listen "$ADDR_ref" -wal "$TMP/wal-ref" 2>>"$TMP/ref.log" &
PID_ref=$!
wait_up "$ADDR_ref" "ref"

say "starting 3-node cluster: a=$ADDR_a b=$ADDR_b c=$ADDR_c"
start_node a
start_node b
start_node c

say "installing ring (R=2)"
"$TMP/ptmcluster" init -replicas 2 \
	-node "a=$ADDR_a" -node "b=$ADDR_b" -node "c=$ADDR_c"

say "phase 1: base workload (locs 1,2) to reference and cluster"
"$TMP/trafficgen" -central "$ADDR_ref" -locA 1 -locB 2 -periods "$PERIODS" -common 300 -seed 1 >/dev/null
"$TMP/trafficgen" -cluster "$SEEDS" -locA 1 -locB 2 -periods "$PERIODS" -common 300 -seed 1 >/dev/null
"$TMP/ptmcluster" wait -seed "$ADDR_a"

VICTIM="$("$TMP/ptmcluster" locate -seed "$ADDR_a" -loc 3 |
	sed -n 's/^location 3: leader \([a-z]*\)@.*/\1/p')"
[ -n "$VICTIM" ] || { say "could not locate the leader of loc 3"; exit 1; }
SURVIVOR_SEED="$ADDR_a"
[ "$VICTIM" = "a" ] && SURVIVOR_SEED="$ADDR_b"

say "phase 2: paced workload (locs 3,4) dripping into the cluster; leader of loc 3 is $VICTIM"
"$TMP/trafficgen" -central "$ADDR_ref" -locA 3 -locB 4 -periods "$PERIODS" -common 300 -seed 2 >/dev/null
"$TMP/trafficgen" -cluster "$SEEDS" -locA 3 -locB 4 -periods "$PERIODS" -common 300 -seed 2 \
	-pace 150ms >"$TMP/paced.out" 2>"$TMP/paced.log" &
GPID=$!

sleep 0.6
say "kill -9 $VICTIM (pid $(pid_of "$VICTIM")) mid-ingest"
kill -9 "$(pid_of "$VICTIM")"
wait "$(pid_of "$VICTIM")" 2>/dev/null || true
eval "PID_$VICTIM=''"

say "failing over: promoting the most-caught-up survivor"
"$TMP/ptmcluster" failover -seed "$SURVIVOR_SEED" -down "$VICTIM"

say "waiting for the paced uploader to finish through the failover"
if ! wait "$GPID"; then
	say "paced uploader failed (log follows)"; cat "$TMP/paced.log"; exit 1
fi
grep -q "uploaded $((2 * PERIODS)) records" "$TMP/paced.out" || {
	say "unexpected uploader summary:"; cat "$TMP/paced.out"; exit 1
}

say "restarting $VICTIM on its own WAL and reviving it"
start_node "$VICTIM"
"$TMP/ptmcluster" revive -seed "$SURVIVOR_SEED" -id "$VICTIM"
"$TMP/ptmcluster" wait -seed "$SURVIVOR_SEED"

diff_estimates "after kill -9 + failover + revive"

say "join: adding node d at $ADDR_d"
start_node d
"$TMP/ptmcluster" join -seed "$ADDR_a" -id d -addr "$ADDR_d"
"$TMP/ptmcluster" wait -seed "$ADDR_a"
"$TMP/ptmcluster" promote -seed "$ADDR_a" -id d

say "drain: emptying node a"
"$TMP/ptmcluster" drain -seed "$ADDR_b" -id a
"$TMP/ptmcluster" wait -seed "$ADDR_b"

SEEDS="$ADDR_b,$ADDR_c,$ADDR_d"
diff_estimates "after join d + drain a"

say "rejoin: removing a and restarting it on $ADDR_moved over its own WAL"
"$TMP/ptmcluster" remove -seed "$ADDR_b" -id a
kill "$PID_a"
wait "$PID_a" 2>/dev/null || true
PID_a=""
ADDR_a="$ADDR_moved"
start_node a
"$TMP/ptmcluster" join -seed "$ADDR_b" -id a -addr "$ADDR_a"
"$TMP/ptmcluster" wait -seed "$ADDR_b"
"$TMP/ptmcluster" promote -seed "$ADDR_b" -id a

diff_estimates "after remove a + rejoin at a new address"

say "ok: kill -9 lost no acked records; estimates bit-identical through failover, revive, join, drain, and rejoin at a new address"
