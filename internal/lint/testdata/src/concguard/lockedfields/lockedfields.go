// Package lockedfieldstest is golden-file input for the guardedby rule:
// the cases of the retired positional lockedfields rule, written with
// explicit //ptm:guardedby annotations. Only the annotated fields are
// guarded; their neighbours under the same mutex are not.
package lockedfieldstest

import "sync"

type counter struct {
	name string // before the mutex: unguarded

	mu sync.Mutex
	n  int //ptm:guardedby mu
	m  int //ptm:guardedby mu

	label string // after the blank line: unguarded
}

// Good locks before touching guarded state.
func (c *counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n + c.m
}

// Bad forgets the lock entirely.
func (c *counter) Bad() int {
	return c.n // want `counter\.n read without holding .*mu`
}

// BadLate touches one guarded field on the way to taking the lock.
func (c *counter) BadLate() int {
	if c.m == 0 { // want `counter\.m read without holding .*mu`
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Unguarded fields stay accessible without the lock.
func (c *counter) Describe() string {
	return c.name + "/" + c.label
}

// AllowedPeek documents a deliberately racy monitoring read.
func (c *counter) AllowedPeek() int {
	//ptmlint:allow guardedby -- monitoring read; staleness is acceptable here
	return c.n
}

type gauge struct {
	mu  sync.RWMutex
	val float64 //ptm:guardedby mu
}

// Read shows RLock also satisfies a read.
func (g *gauge) Read() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.val
}

// Bad reads the guarded value without any lock.
func (g *gauge) Bad() float64 {
	return g.val // want `gauge\.val read without holding .*mu`
}

// BadRLockWrite takes only the read lock and then mutates guarded state.
func (g *gauge) BadRLockWrite(v float64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.val = v // want `gauge\.val written without holding .*mu \(write lock\)`
}

// BadRLockInc mutates through an increment statement under RLock.
func (g *gauge) BadRLockInc() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.val++ // want `gauge\.val written without holding .*mu \(write lock\)`
}

// GoodWriteLock takes the write lock before mutating.
func (g *gauge) GoodWriteLock(v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.val = v
}
