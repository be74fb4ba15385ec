// Package goroutinetest is golden-file input for the goroutinehygiene
// rule: every launch must show a completion linkage (WaitGroup, channel,
// or context); capturing a per-iteration loop variable is not a finding.
package goroutinetest

import (
	"context"
	"sync"
)

func sink(int) {}

func background() {}

// CaptureBad captures the range variable and has no linkage: one finding.
func CaptureBad(items []int) {
	for _, it := range items {
		go func() { // want `goroutine has no visible completion linkage`
			sink(it)
		}()
	}
}

// ClassicFor captures a three-clause loop variable; the channel send is a
// linkage, so nothing is reported.
func ClassicFor(n int) {
	ch := make(chan int)
	for i := 0; i < n; i++ {
		go func() {
			ch <- i
		}()
	}
	for j := 0; j < n; j++ {
		<-ch
	}
}

// CaptureGood hoists the loop variable into a parameter and waits.
func CaptureGood(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			sink(v)
		}(it)
	}
	wg.Wait()
}

// Shadowed re-declares the loop variable's name inside the closure; the
// inner object is not the loop variable, so no capture is reported.
func Shadowed(items []int) {
	done := make(chan struct{})
	for _, it := range items {
		sink(it) // outer use, so the fixture compiles
		go func() {
			it := 0
			sink(it)
			done <- struct{}{}
		}()
		<-done
	}
}

// WithContext shows a receive on ctx.Done as the linkage.
func WithContext(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Naked is fire-and-forget with nothing to wait on.
func Naked() {
	go background() // want `goroutine has no visible completion linkage`
}

// Allowed documents an intentionally unsupervised goroutine.
func Allowed() {
	//ptmlint:allow goroutinehygiene -- fixture lifecycle is bounded by the test process
	go background()
}
