package rsu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptm/internal/dsrc"
	"ptm/internal/pki"
	"ptm/internal/record"
)

// mutexIngester replicates the pre-lock-free handleReport — one mutex
// serializing every report — as the benchmark baseline. Run with
// -cpu=1,4,8 to see the convoy form as fan-in grows.
type mutexIngester struct {
	mu      sync.Mutex
	cur     *record.Record
	seen    uint64
	dropped uint64
}

func (m *mutexIngester) handleReport(rep dsrc.Report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur == nil || rep.Period != m.cur.Period {
		m.dropped++
		return
	}
	m.cur.Bitmap.Set(rep.Index)
	m.seen++
}

// BenchmarkIngestMutex is the serialized baseline: all reports contend on
// one RSU-wide mutex.
func BenchmarkIngestMutex(b *testing.B) {
	rec, err := record.New(1, 1, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	ing := &mutexIngester{cur: rec}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) << 40
		for pb.Next() {
			ing.handleReport(dsrc.Report{Period: 1, Index: i * 0x9e3779b97f4a7c15})
			i++
		}
	})
}

// BenchmarkIngestAtomic is the lock-free path as a vehicle drives it:
// Channel.Send (stripe pick, striped sent counter) into the real RSU
// handleReport (RCU period state, striped grace period, atomic bitmap
// write).
func BenchmarkIngestAtomic(b *testing.B) {
	r := benchRSU(b)
	if err := r.StartPeriod(1, 1<<15); err != nil {
		b.Fatal(err)
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) << 40
		for pb.Next() {
			if err := r.ch.Send(dsrc.Report{Period: 1, Index: i * 0x9e3779b97f4a7c15}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// stats replicates the pre-lock-free Stats: the full-bitmap popcount
// scan ran under the same mutex as report ingest, so every observability
// scrape stalled the report path for the whole scan.
func (m *mutexIngester) stats() (seen uint64, ones float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen, m.cur.Bitmap.FractionOne()
}

// BenchmarkIngestMutexObserved is the deployed shape of the baseline: a
// monitoring goroutine polls stats while reports storm in. Each poll
// holds the ingest mutex across a bitmap scan, convoying every reporter
// behind it.
func BenchmarkIngestMutexObserved(b *testing.B) {
	rec, err := record.New(1, 1, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	ing := &mutexIngester{cur: rec}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = ing.stats()
			}
		}
	}()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) << 40
		for pb.Next() {
			ing.handleReport(dsrc.Report{Period: 1, Index: i * 0x9e3779b97f4a7c15})
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkIngestAtomicObserved is the same workload on the lock-free
// RSU: Stats snapshots the bitmap with atomic loads and never blocks the
// report path.
func BenchmarkIngestAtomicObserved(b *testing.B) {
	r := benchRSU(b)
	if err := r.StartPeriod(1, 1<<15); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Stats()
			}
		}
	}()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) << 40
		for pb.Next() {
			if err := r.ch.Send(dsrc.Report{Period: 1, Index: i * 0x9e3779b97f4a7c15}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// benchRSU assembles a real RSU (credential, channel) for the benchmark.
func benchRSU(b *testing.B) *RSU {
	b.Helper()
	now := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	a, err := pki.NewAuthority(now, 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	cred, err := a.IssueRSU(1, now, 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := dsrc.NewChannel(dsrc.Config{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := New(cred, ch, 2, func() time.Time { return now })
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRotation measures period rotation (StartPeriod+EndPeriod)
// under a concurrent report storm, the RCU writer path.
func BenchmarkRotation(b *testing.B) {
	r := benchRSU(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := uint64(g) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.ch.Send(dsrc.Report{Period: 1, Index: i}); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		}(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.StartPeriod(record.PeriodID(1), 256); err != nil {
			b.Fatal(err)
		}
		if _, err := r.EndPeriod(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
