package wal

// Tests for the replication shipper's exact usage pattern (DESIGN.md
// §15): while appenders keep writing, a shipper loop repeatedly calls
// Seal, replays the newly sealed range with ReplaySegments, and
// eventually drops shipped segments. The invariants proven here are the
// ones cluster replication rests on:
//
//  1. Stable prefix: entries visited by ReplaySegments(w+1, sealed) are
//     exactly the entries appended before that Seal and after the
//     previous one — no loss, no tearing, even with appends racing the
//     rotation.
//  2. Exactly-once union: the concatenation of all rounds' replays is a
//     permutation-free, duplicate-free prefix of the append order.
//  3. Torn-tail restart: a follower that crashes mid-append reopens
//     with the torn entry truncated, and re-applying the leader's
//     resend converges (duplicates tolerated, nothing lost).

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// shipEntry encodes a distinguishable, ordered payload.
func shipEntry(writer, seq int) []byte {
	return []byte(fmt.Sprintf("w%02d-%08d", writer, seq))
}

func TestSealReplayDropUnderConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations, so Seal and the appenders'
	// rotateLocked race constantly.
	l, err := Open(dir, Options{SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const (
		writers   = 4
		perWriter = 400
	)
	// Writers consume one token per append, so the shipper below can
	// meter their progress and guarantee its rounds interleave with
	// in-flight appends rather than racing the goroutine scheduler.
	const total = writers * perWriter
	tokens := make(chan struct{}, total)
	var appended atomic.Int64
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				<-tokens
				if err := l.Append(shipEntry(w, i)); err != nil {
					t.Errorf("append w%d #%d: %v", w, i, err)
					return
				}
				appended.Add(1)
			}
		}(w)
	}

	// The shipper loop: Seal, replay the new range, drop what a real
	// shipper would have acked, repeat until the writers finish and one
	// final round drains the tail.
	shipped := make(map[string]int)
	var rounds int
	watermark := uint64(0)
	shipRound := func() {
		sealed, err := l.Seal()
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		if sealed <= watermark {
			return
		}
		err = l.ReplaySegments(watermark+1, sealed, func(p []byte) error {
			shipped[string(p)]++
			return nil
		})
		if err != nil {
			t.Fatalf("replay %d..%d: %v", watermark+1, sealed, err)
		}
		if first, _ := l.Segments(); watermark+1 < first {
			t.Fatalf("shipped range %d..%d no longer fully on disk (first=%d)", watermark+1, sealed, first)
		}
		watermark = sealed
		rounds++
		// Drop a trailing part of what we shipped, like a shipper whose
		// followers acked; keep the last shipped segment around so the
		// drop itself races later seals.
		if watermark > 1 {
			if err := l.DropThrough(watermark - 1); err != nil {
				t.Fatalf("drop through %d: %v", watermark-1, err)
			}
		}
	}

	// Eight metered bursts: grant a burst of tokens, wait until most of
	// the burst landed, then ship while the stragglers' appends are
	// still in flight — Seal's rotation races writeEntryLocked for real.
	const burst = total / 8
	granted := 0
	for r := 0; r < 8; r++ {
		for i := 0; i < burst; i++ {
			tokens <- struct{}{}
		}
		granted += burst
		for appended.Load() < int64(granted-burst/4) {
			runtime.Gosched()
		}
		shipRound()
	}
	wg.Wait()
	shipRound() // drain the tail sealed after the writers stopped

	if rounds < 3 {
		t.Fatalf("only %d ship rounds; segments too large to exercise the race", rounds)
	}
	// Exactly-once union: every appended entry shipped exactly once.
	if len(shipped) != writers*perWriter {
		t.Fatalf("shipped %d distinct entries, want %d", len(shipped), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := string(shipEntry(w, i))
			if shipped[k] != 1 {
				t.Fatalf("entry %s shipped %d times, want 1", k, shipped[k])
			}
		}
	}
}

// TestSealEmptyTailStable pins Seal's empty-tail contract: sealing with
// nothing appended since the last Seal returns the same index and does
// not churn empty segments — the shipper polls Seal on a timer and an
// idle cluster must not grow its logs.
func TestSealEmptyTailStable(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	s1, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s, err := l.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if s != s1 {
			t.Fatalf("idle seal #%d = %d, want %d", i, s, s1)
		}
	}
	if first, active := l.Segments(); active != s1+1 || first != 1 {
		t.Fatalf("Segments() = (%d, %d), want (1, %d)", first, active, s1+1)
	}
}

// TestReplaySegmentsCheckpointRace pins the documented hazard: a
// checkpoint between Seal and ReplaySegments drops segments out of the
// shipper's range, which replayRange silently skips — the replay
// returns nil but visits nothing. The shipper detects the hole by
// re-checking Segments() afterwards and falls back to a full resync.
func TestReplaySegmentsCheckpointRace(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := l.Append(shipEntry(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if sealed < 3 {
		t.Fatalf("sealed=%d; need several segments", sealed)
	}
	// A checkpoint commits and drops everything through its seal point —
	// including the whole range the shipper was about to read.
	if err := l.Checkpoint(func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	visited := 0
	if err := l.ReplaySegments(1, sealed, func([]byte) error {
		visited++
		return nil
	}); err != nil {
		t.Fatalf("replay over dropped segments must skip, not fail: %v", err)
	}
	if visited != 0 {
		t.Fatalf("replay visited %d entries from dropped segments", visited)
	}
	// The shipper's detection: the range's low end is gone.
	if first, _ := l.Segments(); first <= 1 {
		t.Fatalf("Segments() first = %d; checkpoint should have advanced it past 1", first)
	}
}

func TestTornTailFollowerRestart(t *testing.T) {
	// A follower durably applies replicated entries into its own WAL.
	// Crash it mid-append (simulated by truncating the tail file inside
	// the final entry), restart, and verify: (a) Open repairs the tail,
	// (b) replay yields every fully-appended entry, (c) re-applying the
	// leader's resend of the lost suffix converges without duplicates.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(shipEntry(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop into the last entry's payload.
	segs, _, err := (&Log{dir: dir}).scanDir()
	if err != nil {
		t.Fatal(err)
	}
	tail := fmt.Sprintf("%s/%018d%s", dir, segs[len(segs)-1], segSuffix)
	st, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Restart: the torn entry (w1-49) is truncated away.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("restart repaired nothing; the tear missed")
	}
	applied := make(map[string]bool)
	if err := l2.Replay(func(p []byte) error {
		applied[string(p)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(applied) != n-1 {
		t.Fatalf("replayed %d entries after torn restart, want %d", len(applied), n-1)
	}
	if applied[string(shipEntry(1, n-1))] {
		t.Fatal("torn final entry survived the restart")
	}

	// The leader re-ships from the follower's (regressed) watermark:
	// some entries arrive again, the torn one arrives fresh. A durable
	// follower applies idempotently — skip already-applied, append new.
	reshipped := 0
	for i := n - 5; i < n; i++ {
		p := shipEntry(1, i)
		if applied[string(p)] {
			continue
		}
		if err := l2.Append(p); err != nil {
			t.Fatal(err)
		}
		applied[string(p)] = true
		reshipped++
	}
	if reshipped != 1 {
		t.Fatalf("re-applied %d entries, want exactly the torn one", reshipped)
	}
	final := make(map[string]int)
	if err := l2.Replay(func(p []byte) error {
		final[string(p)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(final) != n {
		t.Fatalf("converged to %d distinct entries, want %d", len(final), n)
	}
	for k, c := range final {
		if c != 1 {
			t.Fatalf("entry %s present %d times after convergence", k, c)
		}
	}
}
