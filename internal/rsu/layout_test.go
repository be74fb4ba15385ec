package rsu

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

// TestReportPathLayout pins what makes handleReport contention-free: the
// two pointers every report loads (RSU.cur, periodState.rec) sit a cache
// line or more from every counter, and the cells start a whole number of
// cells into the period state (stripe's own test pins the cell size).
func TestReportPathLayout(t *testing.T) {
	var st periodState
	if off := unsafe.Offsetof(st.cells); off%stripe.CellSize != 0 {
		t.Errorf("periodState.cells at offset %d, not a multiple of %d", off, stripe.CellSize)
	}
	var r RSU
	cur := field{"RSU.cur", unsafe.Offsetof(r.cur), unsafe.Sizeof(r.cur)}
	pairs := [][2]field{
		{{"periodState.rec", unsafe.Offsetof(st.rec), unsafe.Sizeof(st.rec)}, {"periodState.cells", unsafe.Offsetof(st.cells), unsafe.Sizeof(st.cells)}},
		{cur, {"RSU.rotateMu", unsafe.Offsetof(r.rotateMu), unsafe.Sizeof(r.rotateMu)}},
		{cur, {"RSU.dropped", unsafe.Offsetof(r.dropped), unsafe.Sizeof(r.dropped)}},
		{cur, {"RSU.lastSeen", unsafe.Offsetof(r.lastSeen), unsafe.Sizeof(r.lastSeen)}},
	}
	for _, p := range pairs {
		if !apart(p[0], p[1]) {
			t.Errorf("%s [%d,+%d) can share a cache line with %s [%d,+%d)", p[0].name, p[0].off, p[0].len, p[1].name, p[1].off, p[1].len)
		}
	}
}
