package cluster

import (
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"ptm/internal/transport"
)

// TestRingPersistDoesNotBlockIngest: a ring push persists the ring
// (file write, fsync, directory fsync) before it swaps it in, and
// uploads must pass the leader gate meanwhile. A FIFO at the persist's
// temp path holds the push inside its open until the test reads it.
func TestRingPersistDoesNotBlockIngest(t *testing.T) {
	a := startNode(t, "a")
	r := ringOf(1, 1, a)
	pushRing(t, r, a)
	fifo := a.node.cfg.RingPath + ".tmp"
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	next := r.Clone()
	next.Epoch = 2
	enc, err := EncodeRing(next)
	if err != nil {
		t.Fatal(err)
	}
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		a.node.HandleFrame(transport.MsgRingSet, enc)
	}()
	// release opens the FIFO's read end, which lets the push's open
	// return, and drains what it writes.
	release := func() {
		f, err := os.Open(fifo)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := io.Copy(io.Discard, f); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		<-pushed
	}
	// Wait until the push is inside the persist, blocked in the FIFO's
	// open.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(goroutineStacks(), "wal.WriteFileAtomic") {
		if time.Now().After(deadline) {
			release()
			t.Fatal("the ring push never reached its persist")
		}
		time.Sleep(time.Millisecond)
	}

	rec := testRecord(t, 1, 1, 64)
	ingested := make(chan error, 1)
	go func() { ingested <- a.node.Ingest(rec) }()
	select {
	case err := <-ingested:
		release()
		if err != nil {
			t.Fatalf("ingest during a ring persist: %v", err)
		}
	case <-time.After(2 * time.Second):
		release()
		<-ingested
		t.Fatal("ingest blocked behind the ring persist")
	}
}

// goroutineStacks returns the stack traces of every goroutine.
func goroutineStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
