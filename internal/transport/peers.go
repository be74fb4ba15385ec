package transport

import (
	"fmt"
	"sync"
	"time"
)

// Peers is a cache of client connections keyed by server address: the
// one place where a long-lived caller (the cluster router, the
// replication shipper, an RSU daemon) dials, reuses and replaces its
// connections. Keying by address, not by a member's identity, means a
// peer that moves hosts is dialed at its new address as soon as the
// caller names it. Safe for concurrent use; concurrent calls to one
// address share one pipelined Client.
type Peers struct {
	timeout time.Duration

	// mu guards the table; it is never held across a dial or a call.
	mu      sync.Mutex
	clients map[string]*Client //ptm:guardedby mu (by server address)
	closed  bool               //ptm:guardedby mu
}

// NewPeers returns an empty cache whose dials are bounded by timeout.
func NewPeers(timeout time.Duration) *Peers {
	return &Peers{timeout: timeout, clients: make(map[string]*Client)}
}

// Call runs fn against addr's connection, dialing it on first use.
// After a transport error (anything but a RemoteError) it closes and
// forgets that connection, dials once more and reruns fn: the peer may
// have restarted since the connection was last used. fn may therefore
// run twice, so it must tolerate a request that reached the server the
// first time. After Close, Call fails with ErrClientClosed.
func (p *Peers) Call(addr string, fn func(*Client) error) error {
	c, err := p.get(addr)
	if err != nil {
		return err
	}
	if err = fn(c); err == nil || IsRemote(err) {
		return err
	}
	p.drop(addr, c)
	if c, err = p.get(addr); err != nil {
		return err
	}
	return fn(c)
}

// get returns addr's cached connection, dialing outside the lock.
func (p *Peers) get(addr string) (*Client, error) {
	p.mu.Lock()
	c, closed := p.clients[addr], p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClientClosed
	}
	if c != nil {
		return c, nil
	}
	c, err := Dial(addr, p.timeout)
	if err != nil {
		return nil, err
	}
	return p.insert(addr, c)
}

// insert caches c, freshly dialed, for addr. A dial that lost the race
// to another caller's, or that finished after Close, is closed, and the
// cached connection or ErrClientClosed is returned instead.
func (p *Peers) insert(addr string, c *Client) (*Client, error) {
	p.mu.Lock()
	cached, closed := p.clients[addr], p.closed
	if !closed && cached == nil {
		p.clients[addr] = c
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	//ptmlint:allow errdrop -- the duplicate or late dial was never used
	_ = c.Close()
	if closed {
		return nil, ErrClientClosed
	}
	return cached, nil
}

// drop closes c and forgets it, unless another caller has already
// replaced it in the cache.
func (p *Peers) drop(addr string, c *Client) {
	p.mu.Lock()
	if p.clients[addr] == c {
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	//ptmlint:allow errdrop -- the connection already failed; close is cleanup
	_ = c.Close()
}

// Retain closes the connections of every address keep rejects, such as
// the old address of a member that moved or left.
func (p *Peers) Retain(keep func(addr string) bool) {
	var stale []*Client
	p.mu.Lock()
	for addr, c := range p.clients {
		if !keep(addr) {
			stale = append(stale, c)
			delete(p.clients, addr)
		}
	}
	p.mu.Unlock()
	for _, c := range stale {
		//ptmlint:allow errdrop -- best-effort teardown of an unwanted connection
		_ = c.Close()
	}
}

// Close closes every cached connection and fails later calls. Calls in
// flight fail with ErrClientClosed. Idempotent; it returns the first
// close error.
func (p *Peers) Close() error {
	p.mu.Lock()
	p.closed = true
	clients := p.clients
	p.clients = make(map[string]*Client)
	p.mu.Unlock()
	var first error
	for addr, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = fmt.Errorf("transport: closing %s: %w", addr, err)
		}
	}
	return first
}
