package transport

// Tests for Peers, the connection cache keyed by server address: a
// transport failure drops the cached connection and Call dials once
// more, so long-lived callers (the cluster router and shipper, rsud)
// recover across server restarts without ever reusing a dead
// connection, and Close leaves no connection open.

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// peersRecord builds a small valid record for upload tests.
func peersRecord(t *testing.T, loc, period int) *record.Record {
	t.Helper()
	rec, err := record.New(vhash.LocationID(loc), record.PeriodID(period), 64)
	if err != nil {
		t.Fatal(err)
	}
	rec.Bitmap.Set(uint64(period))
	return rec
}

// startServer serves a fresh central store on addr ("" for any port)
// and returns the server and its bound address. It counts the server's
// open connections in live when live is non-nil.
func startServer(t *testing.T, addr string, live *atomic.Int64) (*Server, string) {
	t.Helper()
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if live != nil {
		ln = countingListener{Listener: ln, live: live}
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

// countingListener counts the connections it accepted that are not yet
// closed. The server closes its side when the client's side closes, so
// the count falls to zero once every client connection is closed.
type countingListener struct {
	net.Listener
	live *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.live.Add(1)
	return &countedConn{Conn: c, live: l.live}, nil
}

type countedConn struct {
	net.Conn
	live *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.live.Add(-1) })
	return c.Conn.Close()
}

// clientOf returns the connection Call hands fn for addr.
func clientOf(t *testing.T, p *Peers, addr string) *Client {
	t.Helper()
	var got *Client
	if err := p.Call(addr, func(c *Client) error {
		got = c
		_, err := c.ListLocations()
		return err
	}); err != nil {
		t.Fatalf("call %s: %v", addr, err)
	}
	return got
}

func TestPeersRecoversAfterServerRestart(t *testing.T) {
	srv, addr := startServer(t, "", nil)
	p := NewPeers(time.Second)
	defer p.Close()
	upload := func(period int) error {
		return p.Call(addr, func(c *Client) error { return c.Upload(peersRecord(t, 1, period)) })
	}
	if err := upload(1); err != nil {
		t.Fatalf("upload before restart: %v", err)
	}
	first := clientOf(t, p, addr)

	// The server restarts on the same address. The cached connection is
	// dead; one Call drops it, dials again and succeeds.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	startServer(t, addr, nil)
	if err := upload(2); err != nil {
		t.Fatalf("upload after restart: %v", err)
	}
	if clientOf(t, p, addr) == first {
		t.Fatal("Call kept the dead connection")
	}
	if _, err := first.ListLocations(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("dropped connection answered %v, want ErrClientClosed", err)
	}
}

func TestPeersFailedRedialStaysUsable(t *testing.T) {
	srv, addr := startServer(t, "", nil)
	p := NewPeers(200 * time.Millisecond)
	defer p.Close()
	clientOf(t, p, addr)

	// The server is gone: the call and its one redial both fail, with a
	// transport error.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	err := p.Call(addr, func(c *Client) error { return c.Upload(peersRecord(t, 2, 1)) })
	if err == nil || IsRemote(err) {
		t.Fatalf("call to a dead server = %v, want a transport error", err)
	}

	// The next call, once the server is back, dials afresh.
	startServer(t, addr, nil)
	if err := p.Call(addr, func(c *Client) error { return c.Upload(peersRecord(t, 2, 1)) }); err != nil {
		t.Fatalf("call after a failed redial: %v", err)
	}
}

func TestPeersRemoteErrorKeepsConnection(t *testing.T) {
	_, addr := startServer(t, "", nil)
	p := NewPeers(time.Second)
	defer p.Close()
	first := clientOf(t, p, addr)
	calls := 0
	err := p.Call(addr, func(c *Client) error {
		calls++
		_, err := c.QueryVolume(9, 1) // no such location: a RemoteError
		return err
	})
	if !IsRemote(err) || calls != 1 {
		t.Fatalf("remote failure: err %v after %d calls, want a RemoteError after 1", err, calls)
	}
	if clientOf(t, p, addr) != first {
		t.Fatal("a RemoteError replaced the connection")
	}
}

func TestPeersCallAfterClose(t *testing.T) {
	_, addr := startServer(t, "", nil)
	p := NewPeers(time.Second)
	c := clientOf(t, p, addr)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := p.Call(addr, func(*Client) error { return nil }); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close = %v, want ErrClientClosed", err)
	}
	if _, err := c.ListLocations(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("cached connection after Close answered %v, want ErrClientClosed", err)
	}
}

// TestPeersReleasesInflightCalls pins liveness: a call in flight on a
// connection Retain drops is released and redialed, and Close releases
// the redialed call; neither waits for a response that never comes.
func TestPeersReleasesInflightCalls(t *testing.T) {
	// A listener that accepts and then answers nothing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	p := NewPeers(time.Second)
	defer p.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- p.Call(ln.Addr().String(), func(c *Client) error {
			_, err := c.ListLocations()
			return err
		})
	}()
	// Wait until the request is on the wire, then drop the connection:
	// the call fails over to a second dial.
	onWire := func() net.Conn {
		conn := <-accepted
		buf := make([]byte, frameHeaderLen)
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	conn := onWire()
	defer conn.Close()
	p.Retain(func(string) bool { return false })
	select {
	case conn2 := <-accepted:
		defer conn2.Close()
	case err := <-errc:
		t.Fatalf("call returned %v instead of redialing", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung on a dropped connection")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("in-flight call across Close = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung across Close")
	}
}

func TestPeersRetainClosesRejected(t *testing.T) {
	_, addrA := startServer(t, "", nil)
	_, addrB := startServer(t, "", nil)
	p := NewPeers(time.Second)
	defer p.Close()
	a, b := clientOf(t, p, addrA), clientOf(t, p, addrB)

	p.Retain(func(addr string) bool { return addr == addrA })
	if _, err := b.ListLocations(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("rejected connection answered %v, want ErrClientClosed", err)
	}
	if _, err := a.ListLocations(); err != nil {
		t.Fatalf("kept connection: %v", err)
	}
	if clientOf(t, p, addrA) != a {
		t.Fatal("Retain replaced a kept connection")
	}
	if clientOf(t, p, addrB) == b {
		t.Fatal("a call after Retain reused the rejected connection")
	}
}

// TestPeersConcurrentCallsAndClose: concurrent calls to one address
// share one connection, a dial that loses the race for the cache or
// finishes after Close is closed, and a Close racing calls (and their
// dials) leaves no connection open on the server.
func TestPeersConcurrentCallsAndClose(t *testing.T) {
	var live atomic.Int64
	_, addr := startServer(t, "", &live)
	const callers = 8

	p := NewPeers(time.Second)
	clients := make([]*Client, callers)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Call(addr, func(c *Client) error {
				clients[i] = c
				_, err := c.ListLocations()
				return err
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, c := range clients {
		if c != clients[0] {
			t.Fatalf("caller %d ran on another connection", i)
		}
	}
	// A dial that loses the insert race is closed, and the caller gets
	// the cached connection.
	late, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := p.insert(addr, late); err != nil || c != clients[0] {
		t.Fatalf("losing insert = %p, %v; want the cached connection", c, err)
	}
	if _, err := late.ListLocations(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("losing dial answered %v, want ErrClientClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// A dial that finishes after Close is closed, not cached or returned.
	if late, err = Dial(addr, time.Second); err != nil {
		t.Fatal(err)
	}
	if c, err := p.insert(addr, late); !errors.Is(err, ErrClientClosed) || c != nil {
		t.Fatalf("insert after Close = %p, %v; want ErrClientClosed", c, err)
	}
	if _, err := late.ListLocations(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("dial after Close answered %v, want ErrClientClosed", err)
	}

	// Close races callers that keep calling, and dropping their
	// connection to dial again, until they see it.
	racing := NewPeers(time.Second)
	var calls atomic.Int64
	var closing atomic.Bool
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := racing.Call(addr, func(c *Client) error {
					_, err := c.ListLocations()
					calls.Add(1)
					return err
				})
				switch {
				case errors.Is(err, ErrClientClosed):
					// Another caller's Retain can close a connection
					// under a call that already used its redial.
					if closing.Load() {
						return
					}
				case err != nil:
					t.Error(err)
					return
				}
				racing.Retain(func(string) bool { return false })
			}
		}()
	}
	for calls.Load() < 4*callers {
		runtime.Gosched()
	}
	closing.Store(true)
	if err := racing.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after Close", live.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
