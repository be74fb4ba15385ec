package dsrc

import (
	"testing"
	"unsafe"

	"ptm/internal/stripe"
)

// field is a struct field's byte extent.
type field struct {
	name     string
	off, len uintptr
}

// apart reports whether a and b share no 64-byte cache line wherever the
// struct starts: a line or more lies between them.
func apart(a, b field) bool {
	return a.off+a.len+64 <= b.off || b.off+b.len+64 <= a.off
}

// TestChannelLayout pins what makes Send contention-free: the words every
// Send reads sit a cache line or more from every word anyone writes, and
// the striped counter starts a whole number of cells into the struct
// (stripe's own test pins the cell size).
func TestChannelLayout(t *testing.T) {
	var c Channel
	if off := unsafe.Offsetof(c.reportsSent); off%stripe.CellSize != 0 {
		t.Errorf("reportsSent at offset %d, not a multiple of %d", off, stripe.CellSize)
	}
	read := []field{
		{"cfg", unsafe.Offsetof(c.cfg), unsafe.Sizeof(c.cfg)},
		{"closed", unsafe.Offsetof(c.closed), unsafe.Sizeof(c.closed)},
		{"sink", unsafe.Offsetof(c.sink), unsafe.Sizeof(c.sink)},
	}
	written := []field{
		{"mu", unsafe.Offsetof(c.mu), unsafe.Sizeof(c.mu)},
		{"beaconsSent", unsafe.Offsetof(c.beaconsSent), unsafe.Sizeof(c.beaconsSent)},
		{"beaconsLost", unsafe.Offsetof(c.beaconsLost), unsafe.Sizeof(c.beaconsLost)},
		{"reportsLost", unsafe.Offsetof(c.reportsLost), unsafe.Sizeof(c.reportsLost)},
		{"reportsSent", unsafe.Offsetof(c.reportsSent), unsafe.Sizeof(c.reportsSent)},
	}
	for _, r := range read {
		for _, w := range written {
			if !apart(r, w) {
				t.Errorf("%s [%d,+%d) can share a cache line with %s [%d,+%d)", r.name, r.off, r.len, w.name, w.off, w.len)
			}
		}
	}
}
