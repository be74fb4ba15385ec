#!/bin/sh
# crashsmoke.sh — end-to-end crash-recovery smoke for the durability
# plane (run standalone or via scripts/check.sh).
#
# The scenario, mirroring DESIGN.md §10:
#   1. centrald starts with a WAL; rsud streams periods at it, spooling
#      to disk (-spool) and pacing so there is a mid-stream to crash in.
#   2. centrald is killed with SIGKILL after the first uploads are acked
#      — no shutdown path runs, recovery is pure WAL replay.
#   3. centrald restarts on the same WAL dir; rsud's drainer retries and
#      delivers the periods that failed during the outage.
#   4. The recovered store's census is diffed against ground truth:
#      every period rsud produced, exactly once, no extras.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d "${TMPDIR:-/tmp}/ptm-crashsmoke.XXXXXX")"
CPID=""
cleanup() {
	[ -n "$CPID" ] && kill "$CPID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

say() { printf 'crashsmoke: %s\n' "$*"; }

say "building binaries"
go build -o "$TMP/centrald" ./cmd/centrald
go build -o "$TMP/rsud" ./cmd/rsud
go build -o "$TMP/ptmquery" ./cmd/ptmquery

PORT=$((17400 + $$ % 2000))
ADDR="127.0.0.1:$PORT"
WAL="$TMP/wal"
SPOOL="$TMP/spool"
LOC=11
PERIODS=6

start_centrald() {
	"$TMP/centrald" -listen "$ADDR" -wal "$WAL" -checkpoint-every 3 2>>"$TMP/centrald.log" &
	CPID=$!
	i=0
	while ! "$TMP/ptmquery" -central "$ADDR" locations >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			say "centrald did not come up (log follows)"; cat "$TMP/centrald.log"; exit 1
		fi
		sleep 0.1
	done
}

say "starting centrald (WAL at $WAL) on $ADDR"
start_centrald

say "starting rsud: $PERIODS paced periods, spooling to $SPOOL"
"$TMP/rsud" -central "$ADDR" -loc "$LOC" -periods "$PERIODS" \
	-fleet 60 -transients 200 -spool "$SPOOL" -pace 300ms \
	-drain-attempts 12 -drain-base 250ms \
	>"$TMP/rsud.out" 2>"$TMP/rsud.log" &
RPID=$!

# Wait until at least two periods are acked, so the crash provably loses
# in-flight work *after* durable acks exist.
i=0
while [ "$(grep -c 'uploaded$' "$TMP/rsud.log" 2>/dev/null || true)" -lt 2 ]; do
	i=$((i + 1))
	if [ "$i" -gt 150 ]; then
		say "rsud never acked two periods (log follows)"; cat "$TMP/rsud.log"; exit 1
	fi
	sleep 0.1
done

say "kill -9 centrald mid-stream (pid $CPID)"
kill -9 "$CPID"
wait "$CPID" 2>/dev/null || true
CPID=""

# Let rsud hit the outage and spool at least one period before recovery.
sleep 1

say "restarting centrald on the same WAL"
start_centrald

say "waiting for rsud to drain its spool and exit"
if ! wait "$RPID"; then
	say "rsud failed (log follows)"; cat "$TMP/rsud.log"; exit 1
fi
grep -q "uploaded $PERIODS periods" "$TMP/rsud.out" || {
	say "unexpected rsud summary:"; cat "$TMP/rsud.out"; exit 1
}

say "diffing recovered census against ground truth"
"$TMP/ptmquery" -central "$ADDR" periods -loc "$LOC" >"$TMP/census.got"
want="location $LOC: ["
p=1
while [ "$p" -le "$PERIODS" ]; do
	want="$want$p"
	[ "$p" -lt "$PERIODS" ] && want="$want "
	p=$((p + 1))
done
want="$want]"
printf '%s\n' "$want" >"$TMP/census.want"
if ! diff -u "$TMP/census.want" "$TMP/census.got"; then
	say "recovered store diverges from ground truth"
	say "rsud log:"; cat "$TMP/rsud.log"
	say "centrald log:"; cat "$TMP/centrald.log"
	exit 1
fi

# The outage is only proven if at least one period actually took the
# spool path.
grep -q 'spooling' "$TMP/rsud.log" || {
	say "no period was ever spooled — the crash window missed; logs:"
	cat "$TMP/rsud.log"; exit 1
}

kill "$CPID" 2>/dev/null || true
wait "$CPID" 2>/dev/null || true
CPID=""

say "ok: $PERIODS periods survived a kill -9 (census byte-identical to ground truth)"
