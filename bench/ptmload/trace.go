package main

// Tracing from outside the program. The benchmark wraps timing
// decorators around the two public interface seams — transport.Store
// (what a transport.Server calls) and store.Store (what a central.Server
// calls) — and records client call → transport.Store method →
// store.Store method as parent/child spans kept in memory until the run
// ends. A layer's self time is its span minus its children. Nothing in
// internal/ is instrumented; spans inside the program are a later
// change.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

const (
	noSpan = int32(-1)
	noReq  = int64(-1)
)

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	req        int64 // the client operation every span of one request shares; noReq until snapshot
}

// tracer is the in-memory span store. One mutex-guarded append per span
// edge is cheap next to the loopback round trip and fsync every traced
// operation contains; trace_overhead_pct reports what it costs.
//
// It also finds a server-side span's parent. Go has no goroutine-local
// storage and the wire carries no request id, so the link uses what the
// benchmark knows about its own load: every record key is uploaded
// exactly once, and at most one query is in flight at a time.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span //ptm:guardedby mu

	uploads map[uint64]int32 //ptm:guardedby mu (record key → client span that carries it)
	ingests map[uint64]int32 //ptm:guardedby mu (record key → transport.Store span in flight)

	query     atomic.Int32 // client query span in flight
	querySeam atomic.Int32 // transport.Store query span in flight
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, capacity),
		uploads: map[uint64]int32{}, ingests: map[uint64]int32{}}
	t.query.Store(noSpan)
	t.querySeam.Store(noSpan)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	now := t.now()
	t.mu.Lock()
	id := t.beginLocked(name, now, parent, req)
	t.mu.Unlock()
	return id
}

func (t *tracer) beginLocked(name string, now int64, parent int32, req int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, req: req})
	return id
}

// beginUpload opens the client span of an upload and notes which records
// it carries, so their server-side ingests find it.
func (t *tracer) beginUpload(name string, req int64, recs ...*record.Record) int32 {
	now := t.now()
	t.mu.Lock()
	id := t.beginLocked(name, now, noSpan, req)
	for _, rec := range recs {
		t.uploads[recKey(rec.Location, rec.Period)] = id
	}
	t.mu.Unlock()
	return id
}

// beginSeamIngest opens the transport.Store span of one record's ingest
// under the client span that carries the record, and registers it for
// the store.Store span below; endSeamIngest closes it.
func (t *tracer) beginSeamIngest(name string, key uint64) int32 {
	now := t.now()
	t.mu.Lock()
	parent, ok := t.uploads[key]
	if !ok {
		parent = noSpan
	}
	id := t.beginLocked(name, now, parent, noReq)
	t.ingests[key] = id
	t.mu.Unlock()
	return id
}

func (t *tracer) endSeamIngest(id int32, key uint64) {
	now := t.now()
	t.mu.Lock()
	delete(t.ingests, key)
	t.spans[id].end = now
	t.mu.Unlock()
}

// beginStoreIngest opens the store.Store span of one record's ingest
// under the transport.Store span in flight for it, if any (a replicated
// or preloaded record has none).
func (t *tracer) beginStoreIngest(key uint64) int32 {
	now := t.now()
	t.mu.Lock()
	parent, ok := t.ingests[key]
	if !ok {
		parent = noSpan
	}
	id := t.beginLocked("store.Ingest", now, parent, noReq)
	t.mu.Unlock()
	return id
}

// beginQuery opens the client span of a query; endQuery closes it.
func (t *tracer) beginQuery(name string, req int64) int32 {
	id := t.begin(name, noSpan, req)
	t.query.Store(id)
	return id
}

func (t *tracer) endQuery(id int32) {
	t.query.Store(noSpan)
	t.end(id)
}

func (t *tracer) end(id int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// reset drops the spans recorded so far: set-up runs through the same
// decorated seams and is not part of the trace.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) rename(id int32, name string) {
	t.mu.Lock()
	t.spans[id].name = name
	t.mu.Unlock()
}

// snapshot returns the finished spans, each server-side span carrying
// the request id of the client span above it (a parent always precedes
// its children). Call it after every traced goroutine has stopped.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if p := out[i].parent; p != noSpan && out[i].req == noReq {
			out[i].req = out[p].req
		}
	}
	return out
}

// spanTimes holds, per span name, every span's duration and self time in
// microseconds, and the spans themselves.
type spanTimes struct {
	total, self map[string][]float64
	spans       []span
}

// analyze computes each span's self time: its duration minus the part
// its children cover. Children of one parent run one after another in
// every traced path, so the covered part is the sum of their durations.
func analyze(spans []span) spanTimes {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent != noSpan {
			covered[s.parent] += s.end - s.start
		}
	}
	st := spanTimes{total: map[string][]float64{}, self: map[string][]float64{}, spans: spans}
	for i, s := range spans {
		d := s.end - s.start
		st.total[s.name] = append(st.total[s.name], float64(d)/1e3)
		st.self[s.name] = append(st.self[s.name], float64(d-covered[i])/1e3)
	}
	return st
}

// pathAtMedian decomposes the typical request. Medians of layers do not
// add up when the latency distribution has several modes (a cached and a
// computed answer, a resident and a mapped record), so this takes the
// requests whose root span lies in the middle fiftieth of the root's
// distribution and averages, per layer (the span name up to its first
// dot), the self time spent under them. The layers sum to the mean root
// duration of that band exactly; total returns it in microseconds and
// requests the size of the band. The
// band is that narrow because query-mix's p2p latency has its knee at the
// median (p45 0.08 ms, p55 0.21 ms): the mean of a tenth-wide band sat
// 11 % above the band's own median.
func pathAtMedian(spans []span, root string) (byLayer map[string]float64, total float64, requests int) {
	children := make([][]int32, len(spans))
	var roots []int32
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
		if s.name == root {
			roots = append(roots, int32(i))
		}
	}
	dur := func(i int32) int64 { return spans[i].end - spans[i].start }
	sort.Slice(roots, func(a, b int) bool { return dur(roots[a]) < dur(roots[b]) })
	band := roots[len(roots)*49/100 : max(len(roots)*51/100, len(roots)*49/100+1)]
	byLayer = map[string]float64{}
	var walk func(i int32)
	walk = func(i int32) {
		self := dur(i)
		for _, c := range children[i] {
			self -= dur(c)
			walk(c)
		}
		layer, _, _ := strings.Cut(spans[i].name, ".")
		byLayer[layer] += float64(self) / 1e3 / float64(len(band))
	}
	for _, r := range band {
		walk(r)
		total += float64(dur(r)) / 1e3 / float64(len(band))
	}
	return byLayer, total, len(band)
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Req     int64  `json:"request"`
	}
	for i, s := range spans {
		if err := enc.Encode(line{i, s.name, s.start, s.end, s.parent, s.req}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tracedTransportStore decorates the transport.Store seam. layer names
// what sits behind it ("central" for a Durable, "cluster" for a Node).
// It forwards transport.Extension so a wrapped cluster.Node still serves
// ring, replication and fetch frames, and counts the fetch responses.
type tracedTransportStore struct {
	inner transport.Store
	ext   transport.Extension // nil when inner serves no extension frames
	tr    *tracer
	names struct{ ingest, volume, point, p2p, fetch string }

	fetches    atomic.Int64
	fetchBytes atomic.Int64
}

func traceTransportStore(inner transport.Store, layer string, tr *tracer) *tracedTransportStore {
	ext, _ := inner.(transport.Extension)
	s := &tracedTransportStore{inner: inner, ext: ext, tr: tr}
	s.names.ingest = layer + ".Ingest"
	s.names.volume = layer + ".Volume"
	s.names.point = layer + ".PointPersistent"
	s.names.p2p = layer + ".PointToPointPersistent"
	s.names.fetch = layer + ".FetchRecords"
	return s
}

func (s *tracedTransportStore) Ingest(rec *record.Record) error {
	key := recKey(rec.Location, rec.Period)
	id := s.tr.beginSeamIngest(s.names.ingest, key)
	err := s.inner.Ingest(rec)
	s.tr.endSeamIngest(id, key)
	return err
}

// query brackets one query method with a span under the client's.
func (s *tracedTransportStore) query(name string, call func()) {
	id := s.tr.begin(name, s.tr.query.Load(), noReq)
	s.tr.querySeam.Store(id)
	call()
	s.tr.querySeam.Store(noSpan)
	s.tr.end(id)
}

func (s *tracedTransportStore) Volume(loc vhash.LocationID, p record.PeriodID) (v float64, err error) {
	s.query(s.names.volume, func() { v, err = s.inner.Volume(loc, p) })
	return v, err
}

func (s *tracedTransportStore) PointPersistent(loc vhash.LocationID, periods []record.PeriodID) (res *core.PointResult, err error) {
	s.query(s.names.point, func() { res, err = s.inner.PointPersistent(loc, periods) })
	return res, err
}

func (s *tracedTransportStore) PointToPointPersistent(a, b vhash.LocationID, periods []record.PeriodID) (res *core.PointToPointResult, err error) {
	s.query(s.names.p2p, func() { res, err = s.inner.PointToPointPersistent(a, b, periods) })
	return res, err
}

func (s *tracedTransportStore) Locations() []vhash.LocationID { return s.inner.Locations() }

func (s *tracedTransportStore) Periods(loc vhash.LocationID) []record.PeriodID {
	return s.inner.Periods(loc)
}

// HandleFrame implements transport.Extension by forwarding. A record
// fetch is part of a cross-partition query, so it gets a span under the
// client's and its response size is counted.
func (s *tracedTransportStore) HandleFrame(t transport.MsgType, payload []byte) (transport.MsgType, []byte, bool) {
	if s.ext == nil {
		return 0, nil, false
	}
	if t != transport.MsgFetchRecords {
		return s.ext.HandleFrame(t, payload)
	}
	id := s.tr.begin(s.names.fetch, s.tr.query.Load(), noReq)
	rt, resp, handled := s.ext.HandleFrame(t, payload)
	s.tr.end(id)
	s.fetches.Add(1)
	s.fetchBytes.Add(int64(len(resp)))
	return rt, resp, handled
}

// tracedStore decorates the store.Store seam under a central.Server.
// Collect spans are named by the tier that served them: a Collect that
// moved the block cache's hit or miss counters touched the cold tier.
// Only the single query connection collects, so the before/after read
// of the counters is not racing another reader.
type tracedStore struct {
	store.Store
	cache store.CacheStatser // nil for a store without a cold tier
	tr    *tracer
}

func (s *tracedStore) Ingest(rec *record.Record) (int, error) {
	id := s.tr.beginStoreIngest(recKey(rec.Location, rec.Period))
	prior, err := s.Store.Ingest(rec)
	s.tr.end(id)
	return prior, err
}

func (s *tracedStore) coldReads() uint64 {
	if s.cache == nil {
		return 0
	}
	cs := s.cache.CacheStats()
	return cs.Hits + cs.Misses
}

func (s *tracedStore) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	before := s.coldReads()
	id := s.tr.begin("store.Collect.hot", s.tr.querySeam.Load(), noReq)
	recs, epoch, unpin, err := s.Store.Collect(loc, periods)
	s.tr.end(id)
	if s.coldReads() != before {
		s.tr.rename(id, "store.Collect.cold")
	}
	return recs, epoch, unpin, err
}

func (s *tracedStore) Lookup(loc vhash.LocationID, p record.PeriodID) (*record.Record, func(), bool) {
	id := s.tr.begin("store.Lookup", s.tr.querySeam.Load(), noReq)
	rec, unpin, ok := s.Store.Lookup(loc, p)
	s.tr.end(id)
	return rec, unpin, ok
}
