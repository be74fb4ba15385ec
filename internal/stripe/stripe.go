// Package stripe holds the striped counter cells of the report path. A
// counter every vehicle report increments is one cache line that every
// reporting core writes, so the line ping-pongs between them; striping
// gives each core a line of its own (the LongAdder idea) and makes a read
// the sum over the stripes. dsrc.Channel picks the stripe once per report
// and hands it to its sink, so the RSU counts on the stripe the channel
// counted on.
package stripe

import (
	"sync"
	"sync/atomic"
)

const (
	// Count is the number of stripes, a power of two so At can mask. It
	// is fixed: senders beyond it share stripes, which costs speed, never
	// exactness.
	Count = 16
	// CellSize is two 64-byte lines: the adjacent-line prefetcher pulls
	// lines in pairs, so neighbours one line apart would still share.
	CellSize = 128
)

// ID names a stripe. Pick returns IDs below Count; At accepts any.
type ID uint8

// Cell is one stripe's share of a counter and, for a counter that also
// guards an RCU read section, of the reader count; alone on its
// cache-line pair.
type Cell struct {
	// Count is this stripe's share of the counter. It only grows.
	Count atomic.Uint64
	// Entered counts the readers that have entered the section on this
	// stripe and not backed out; a reader that finishes adds one to Count
	// instead of taking itself off Entered, which saves it a third write.
	// Entered - Count is therefore the number of readers inside. A reader
	// enters and finishes on the same stripe, so a writer that finds every
	// stripe Idle after unpublishing has waited out every reader.
	Entered atomic.Uint64
	_       [CellSize - 16]byte
}

// Idle reports whether no reader was inside the section on this stripe at
// some instant during the call. Count is loaded first: it can only have
// grown by the time Entered is loaded, so the difference errs towards
// "busy" and equality means Entered counted no one but finished readers.
func (c *Cell) Idle() bool {
	n := c.Count.Load()
	return c.Entered.Load() == n
}

// Cells is one striped counter. A cell's two words are CellSize bytes
// from the next cell's, so no two cells share a cache line wherever the
// allocator puts the array (the heap does not line-align it: a large
// struct with pointers starts 8 bytes into its slot, behind the malloc
// header). What the embedding struct owes is a line's distance between
// the array and the words its hot path only reads; the layout tests of
// dsrc and rsu check that.
type Cells [Count]Cell

// At returns stripe s's cell.
func (c *Cells) At(s ID) *Cell { return &c[s%Count] }

// Sum adds up the stripes' counts. Each stripe only grows, so one
// caller's successive sums never decrease, but a sum taken while writers
// run is not a snapshot of any one instant; it is exact once they stop.
func (c *Cells) Sum() uint64 {
	var n uint64
	for i := range c {
		n += c[i].Count.Load()
	}
	return n
}

// token carries a stripe through the pool. sync.Pool keeps one private
// slot per P, so a goroutine gets back the token its P put there last:
// senders running on different Ps land on different stripes without
// knowing which P they are on.
type token struct{ id ID }

var (
	next   atomic.Uint32
	tokens = sync.Pool{New: func() any { return &token{id: ID((next.Add(1) - 1) % Count)} }}
)

// Pick returns the stripe for the calling goroutine's current P. Stripes
// are dealt round-robin to new tokens, so the first Count Ps get distinct
// ones.
func Pick() ID {
	t := tokens.Get().(*token)
	id := t.id
	tokens.Put(t)
	return id
}
