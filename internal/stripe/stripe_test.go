package stripe

import (
	"sync"
	"testing"
	"unsafe"
)

// TestCellLayout: cells stand a whole number of line pairs apart, with
// both words at the front, so cell i's words are CellSize bytes from cell
// i+1's wherever the array starts.
func TestCellLayout(t *testing.T) {
	var c Cell
	if size := unsafe.Sizeof(c); size == 0 || size%CellSize != 0 {
		t.Errorf("cell is %d bytes, not a multiple of %d", size, CellSize)
	}
	if end := unsafe.Offsetof(c.Entered) + unsafe.Sizeof(c.Entered); end > 16 {
		t.Errorf("cell words end at byte %d, want within the first 16", end)
	}
	if Count&(Count-1) != 0 {
		t.Errorf("Count = %d is not a power of two", Count)
	}
}

// TestPickAndSum: from more goroutines than stripes, every Pick names a
// stripe and the sum over stripes counts every Add.
func TestPickAndSum(t *testing.T) {
	const (
		workers = Count + Count/2
		perW    = 2000
	)
	var (
		cells Cells
		wg    sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s := Pick()
				if s >= Count {
					t.Errorf("Pick() = %d, want below %d", s, Count)
					return
				}
				cells.At(s).Count.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := cells.Sum(); got != workers*perW {
		t.Errorf("Sum() = %d, want %d", got, workers*perW)
	}
}

// TestIdle walks one cell through a reader that finishes and one that
// backs out.
func TestIdle(t *testing.T) {
	var c Cell
	if !c.Idle() {
		t.Error("fresh cell is busy")
	}
	c.Entered.Add(1)
	if c.Idle() {
		t.Error("cell with a reader inside is idle")
	}
	c.Count.Add(1) // the reader finishes
	if !c.Idle() {
		t.Error("cell is busy after its reader finished")
	}
	c.Entered.Add(1)
	c.Entered.Add(^uint64(0)) // a second reader backs out
	if !c.Idle() || c.Count.Load() != 1 {
		t.Errorf("after a back-out: idle %v, count %d; want true, 1", c.Idle(), c.Count.Load())
	}
}
