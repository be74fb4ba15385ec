package wal

import (
	"fmt"
	"testing"
)

// The append path is what sits between an RSU's upload and its Ack, so
// its cost is the ingest plane's durability overhead.
// Run with `go test -run=NONE -bench=Append ./internal/wal/`; the
// end-to-end figure is bench/ptmload's wal.append_sync_us.

func benchAppend(b *testing.B, payload int) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	buf := make([]byte, payload)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(int64(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSerial(b *testing.B) {
	for _, size := range []int{256, 4096} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			benchAppend(b, size)
		})
	}
}

// BenchmarkAppendGroupCommit measures concurrent appenders sharing
// fsyncs: the whole point of group commit is that ns/op here collapses
// versus serial appends as parallelism rises (-cpu=1,4,8).
func BenchmarkAppendGroupCommit(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	buf := make([]byte, 256)
	b.SetBytes(256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := l.Stats()
	if st.Appends > 0 {
		b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "syncs/append")
	}
}
