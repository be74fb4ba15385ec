// Package badannot holds malformed concguard annotations: each must be
// reported once, under the rule that owns the fact.
package badannot

import "sync"

//ptm:lockorder mu-other
type pair struct {
	mu sync.Mutex
	n  int //ptm:guardedby nosuch
	c  int //ptm:guardedby n
}

func (p *pair) Sum() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n + p.c
}
