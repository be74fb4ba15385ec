package store

// Tiered: the out-of-core store. Recent ("hot") records live in the
// resident Mem shards exactly as before; once the hot tier's payload
// exceeds the resident budget, the oldest periods are frozen — written
// as one immutable checkpoint segment via the WAL's atomic-commit
// primitive, then served from the mapping through the block cache.
//
// # Tiering state machine
//
// A record is in exactly one of two states, and moves at most once:
//
//	hot ──freeze──▶ cold ──retention──▶ gone
//	 │                                    ▲
//	 └───────────retention────────────────┘
//
// Freeze moves bits, never values: the segment stores the bitmap words
// verbatim, so a query answered from the cold tier is bit-identical to
// one answered before the freeze. A record's sequence number therefore
// moves with it into the cold index, and no fence changes on freeze —
// cached estimates stay valid, which is the whole point of making the
// estimator plane tier-oblivious.
//
// # Locking
//
// Lock order: freezeMu ≺ mu ≺ Mem shard locks.
//
//   - freezeMu serializes freezes (one segment writer at a time).
//   - mu (the tiering lock) guards the cold index and segment table.
//     Ingest holds mu.RLock across its cold-duplicate check AND the hot
//     insert, and the freeze commit publishes cold entries and removes
//     their hot twins under one mu.Lock — so an ingest can never slip a
//     duplicate between "not in cold yet" and "already out of hot", and
//     a reader holding mu.RLock sees every record in exactly one tier.
//   - Collect and Fence read the hot tier (records + their sequence
//     numbers, one shard lock hold); a request served entirely from it
//     is done. Otherwise they take mu.RLock, read the hot tier again,
//     and fill the holes, sequence numbers included, from the cold
//     index. Freeze commits and retention need mu.Lock, so under
//     mu.RLock the hot tier only gains records: the second hot read plus
//     the cold index is one consistent record set, and the fence is the
//     highest sequence number in it. Pairing the first hot read with the
//     cold index would not be — a retention, re-ingest and freeze of the
//     same period between the two could name a set that never existed.
//
// # Crash safety
//
// The freeze commit point is wal.WriteFileAtomic's rename (plus dir
// fsync). A crash before it leaves only a .tmp file (swept at open); a
// crash after it but before the hot removals is invisible: the hot tier
// is rebuilt from the WAL by the layer above, replay hits the cold
// duplicate check, and the record simply stays cold.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

// TieredOptions configures OpenTiered.
type TieredOptions struct {
	// Shards is the hot tier's shard count (0 selects DefaultShards).
	Shards int
	// ResidentBudget bounds the hot tier's payload in bytes; exceeding
	// it triggers a freeze of the oldest periods. <= 0 disables
	// automatic freezing (records migrate only via explicit Freeze).
	ResidentBudget int64
	// CacheBytes bounds the cold-read block cache (<= 0 selects
	// DefaultCacheBytes).
	CacheBytes int64
}

// coldRef locates a cold record — entry idx of segment seg — and keeps
// the sequence number it was admitted with.
type coldRef struct {
	seg uint64
	idx int
	seq uint64
}

// Tiered implements Store over a hot Mem tier and cold mapped segments.
//
//ptm:lockorder freezeMu<mu
type Tiered struct {
	hot    *Mem
	dir    string
	budget int64
	cache  *BlockCache

	// freezeMu serializes segment writers; ingests that overflow the
	// budget block here until the running freeze brings the hot tier
	// back under it (backpressure, so RSS cannot outrun the freezer).
	freezeMu sync.Mutex

	mu sync.RWMutex
	//ptm:guardedby mu
	cold map[vhash.LocationID]map[record.PeriodID]coldRef
	//ptm:guardedby mu
	segs map[uint64]*Segment
	//ptm:guardedby mu
	nextSeg uint64
	//ptm:guardedby mu
	coldBits int64
	//ptm:guardedby mu
	closed bool

	// hotBits tracks the hot tier's payload for the freeze trigger.
	// Mutated under mu (read or write side), read without it.
	hotBits atomic.Int64
}

// OpenTiered opens (or creates) a tiered store rooted at dir: existing
// segments are mapped and indexed, leftover temp files from an
// interrupted freeze are swept.
//
//ptm:exclusive constructor: the store is not shared until OpenTiered returns
func OpenTiered(dir string, opts TieredOptions) (*Tiered, error) {
	hot, err := NewMem(opts.Shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	t := &Tiered{
		hot:    hot,
		dir:    dir,
		budget: opts.ResidentBudget,
		cache:  NewBlockCache(opts.CacheBytes),
		cold:   make(map[vhash.LocationID]map[record.PeriodID]coldRef),
		segs:   make(map[uint64]*Segment),
	}
	ids, err := scanSegmentDir(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		seg, err := OpenSegment(filepath.Join(dir, segFileName(id)), id)
		if err != nil {
			//ptmlint:allow errdrop -- the open error is what the caller sees; closing the partial store is best-effort
			_ = t.Close()
			return nil, err
		}
		t.segs[id] = seg
		for i := range seg.entries {
			e := &seg.entries[i]
			if _, dup := t.cold[e.loc][e.period]; dup {
				//ptmlint:allow errdrop -- the duplicate error is what the caller sees
				_ = t.Close()
				return nil, fmt.Errorf("store: record loc=%d period=%d appears in multiple segments", e.loc, e.period)
			}
			ref := coldRef{seg: id, idx: i, seq: t.hot.nextSeq(e.loc)}
			t.addColdLocked(e.loc, e.period, ref, int64(e.nbits))
		}
		if id >= t.nextSeg {
			t.nextSeg = id + 1
		}
	}
	return t, nil
}

// addColdLocked publishes one cold index entry. Caller holds mu (or has
// exclusive access during construction).
func (t *Tiered) addColdLocked(loc vhash.LocationID, p record.PeriodID, ref coldRef, bits int64) {
	byP, ok := t.cold[loc]
	if !ok {
		byP = make(map[record.PeriodID]coldRef)
		t.cold[loc] = byP
	}
	byP[p] = ref
	t.coldBits += bits
}

// Ingest implements Store. The cold-duplicate check and the hot insert
// happen under one tiering read lock, so a concurrent freeze commit
// (which publishes cold entries and removes hot ones under the write
// lock) can never interleave between them.
func (t *Tiered) Ingest(rec *record.Record) (int, error) {
	if rec == nil {
		return 0, record.ErrNilBitmap
	}
	if err := rec.Validate(); err != nil {
		return 0, err
	}
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return 0, ErrClosed
	}
	coldPrior := len(t.cold[rec.Location])
	if _, dup := t.cold[rec.Location][rec.Period]; dup {
		t.mu.RUnlock()
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrDuplicate, rec.Location, rec.Period)
	}
	prior, err := t.hot.Ingest(rec)
	if err == nil {
		t.hotBits.Add(int64(rec.Size()))
	}
	t.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	return prior + coldPrior, t.maybeFreeze()
}

// Contains implements Store (no cold-tier I/O — the index alone answers).
func (t *Tiered) Contains(loc vhash.LocationID, p record.PeriodID) bool {
	if t.hot.Contains(loc, p) {
		return true
	}
	t.mu.RLock()
	_, ok := t.cold[loc][p]
	t.mu.RUnlock()
	return ok
}

// Shards returns the hot tier's shard count.
func (t *Tiered) Shards() int { return t.hot.Shards() }

// maybeFreeze freezes the oldest periods when the hot payload exceeds
// the resident budget. It freezes down to half the budget (hysteresis:
// a freeze per ingest at the boundary would write one-record segments),
// and ingests arriving during a freeze queue behind freezeMu — the
// resident set cannot outrun the segment writer.
func (t *Tiered) maybeFreeze() error {
	if t.budget <= 0 || t.hotBits.Load()/8 <= t.budget {
		return nil
	}
	t.freezeMu.Lock()
	defer t.freezeMu.Unlock()
	if t.hotBits.Load()/8 <= t.budget {
		return nil // the freeze we queued behind already did the work
	}
	_, err := t.freezeLocked(t.budget / 2)
	return err
}

// Freeze migrates the oldest periods to a new cold segment until the
// hot tier holds at most targetBytes of payload (0 freezes everything).
// Returns the number of records frozen.
func (t *Tiered) Freeze(targetBytes int64) (int, error) {
	t.freezeMu.Lock()
	defer t.freezeMu.Unlock()
	return t.freezeLocked(targetBytes)
}

// freezeLocked does one freeze cycle. Caller holds freezeMu.
func (t *Tiered) freezeLocked(targetBytes int64) (int, error) {
	need := t.hotBits.Load()/8 - targetBytes
	if need <= 0 {
		return 0, nil
	}

	// Victim selection: oldest periods first, whole records, at least
	// one. appendAll sees a live hot tier; anything ingested after this
	// scan just waits for the next freeze.
	victims := t.hot.appendAll(nil)
	if len(victims) == 0 {
		return 0, nil
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].Period != victims[j].Period {
			return victims[i].Period < victims[j].Period
		}
		return victims[i].Location < victims[j].Location
	})
	taken := int64(0)
	n := 0
	for n < len(victims) && taken < need*8 {
		taken += int64(victims[n].Size())
		n++
	}
	victims = victims[:n]
	sortRecords(victims) // segment order: (location, period)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0, ErrClosed
	}
	id := t.nextSeg
	t.nextSeg++
	t.mu.Unlock()

	path := filepath.Join(t.dir, segFileName(id))
	if err := wal.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteSegment(w, victims)
	}); err != nil {
		return 0, fmt.Errorf("store: freezing segment %d: %w", id, err)
	}
	if err := wal.SyncDir(t.dir); err != nil {
		return 0, fmt.Errorf("store: freezing segment %d: %w", id, err)
	}
	seg, err := OpenSegment(path, id)
	if err != nil {
		return 0, fmt.Errorf("store: reopening frozen segment: %w", err)
	}

	// Commit: publish the cold entries and retire the hot twins under
	// one write lock — no reader or ingester observes a record in both
	// tiers or neither. A victim that retention dropped since the scan
	// (and a re-ingest may have replaced) stays unpublished: its segment
	// entry is dead on arrival, and the segment is deleted once none of
	// its entries is live.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		//ptmlint:allow errdrop -- racing Close; the segment is fully durable, next open adopts it
		_ = seg.Close()
		return 0, ErrClosed
	}
	t.segs[id] = seg
	frozen, frozenBits := 0, int64(0)
	for i, rec := range victims {
		seq, ok := t.hot.Remove(rec)
		if !ok {
			continue
		}
		t.addColdLocked(rec.Location, rec.Period, coldRef{seg: id, idx: i, seq: seq}, int64(rec.Size()))
		frozen++
		frozenBits += int64(rec.Size())
	}
	t.hotBits.Add(-frozenBits)
	if frozen < len(victims) {
		err = t.gcSegmentsLocked()
	}
	t.mu.Unlock()
	return frozen, err
}

// pinCold pins one cold record and materializes its bitmap view.
// Caller holds mu.RLock (so the segment cannot be closed under us while
// we take its pin). The returned unpin releases the cache span and the
// segment reference.
func (t *Tiered) pinColdLocked(loc vhash.LocationID, p record.PeriodID, ref coldRef) (*record.Record, func(), error) {
	seg := t.segs[ref.seg]
	if seg == nil || !seg.pin() {
		return nil, nil, fmt.Errorf("%w: loc=%d period=%d (segment retired)", ErrNotFound, loc, p)
	}
	words, cacheUnpin, err := t.cache.Get(spanKey{seg: ref.seg, idx: ref.idx}, func() ([]uint64, int64, func() error, error) {
		if err := seg.verifyEntry(ref.idx); err != nil {
			return nil, 0, nil, err
		}
		w := seg.entryWords(ref.idx)
		return w, int64(len(w) * 8), func() error { return seg.releaseEntry(ref.idx) }, nil
	})
	if err != nil {
		seg.unpin()
		return nil, nil, err
	}
	bm, err := fromColdWords(words)
	if err != nil {
		cacheUnpin()
		seg.unpin()
		return nil, nil, err
	}
	rec := &record.Record{Location: loc, Period: p, Bitmap: bm}
	return rec, func() { cacheUnpin(); seg.unpin() }, nil
}

// Lookup implements Store.
func (t *Tiered) Lookup(loc vhash.LocationID, p record.PeriodID) (*record.Record, func(), bool) {
	if rec, unpin, ok := t.hot.Lookup(loc, p); ok {
		return rec, unpin, true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ref, ok := t.cold[loc][p]
	if !ok {
		return nil, nil, false
	}
	rec, unpin, err := t.pinColdLocked(loc, p, ref)
	if err != nil {
		return nil, nil, false
	}
	return rec, unpin, true
}

// Collect implements Store: hot records and their sequence numbers are
// read under one shard lock hold, holes are filled from the cold tier
// under the tiering read lock. See the package comment on why the
// result stays a consistent snapshot.
func (t *Tiered) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	recs, fence, missing := t.hot.collectPartial(loc, periods)
	if missing < 0 {
		return recs, fence, noopUnpin, nil
	}
	var unpins []func()
	release := func() {
		for _, u := range unpins {
			u()
		}
	}
	t.mu.RLock()
	recs, fence, _ = t.hot.collectPartial(loc, periods)
	for i, p := range periods {
		if recs[i] != nil {
			continue
		}
		ref, ok := t.cold[loc][p]
		if !ok {
			t.mu.RUnlock()
			release()
			return nil, 0, nil, notFound(loc, p)
		}
		rec, unpin, err := t.pinColdLocked(loc, p, ref)
		if err != nil {
			t.mu.RUnlock()
			release()
			return nil, 0, nil, err
		}
		recs[i] = rec
		unpins = append(unpins, unpin)
		fence = max(fence, ref.seq)
	}
	t.mu.RUnlock()
	if len(unpins) == 0 {
		return recs, fence, noopUnpin, nil
	}
	return recs, fence, release, nil
}

// Fence implements Store: Collect's two reads, with the cold holes
// looked up in the index instead of pinned.
func (t *Tiered) Fence(loc vhash.LocationID, periods []record.PeriodID) (uint64, error) {
	_, fence, missing := t.hot.collectPartial(loc, periods)
	if missing < 0 {
		return fence, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	recs, fence, _ := t.hot.collectPartial(loc, periods)
	cold := t.cold[loc]
	for i, p := range periods {
		if recs[i] != nil {
			continue
		}
		ref, ok := cold[p]
		if !ok {
			return 0, notFound(loc, p)
		}
		fence = max(fence, ref.seq)
	}
	return fence, nil
}

// Locations implements Store (union of tiers).
func (t *Tiered) Locations() []vhash.LocationID {
	out := t.hot.Locations()
	seen := make(map[vhash.LocationID]bool, len(out))
	for _, loc := range out {
		seen[loc] = true
	}
	t.mu.RLock()
	for loc := range t.cold {
		if !seen[loc] {
			out = append(out, loc)
		}
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Periods implements Store (union of tiers).
func (t *Tiered) Periods(loc vhash.LocationID) []record.PeriodID {
	out := t.hot.Periods(loc)
	seen := make(map[record.PeriodID]bool, len(out))
	for _, p := range out {
		seen[p] = true
	}
	t.mu.RLock()
	for p := range t.cold[loc] {
		if !seen[p] {
			out = append(out, p)
		}
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DropBefore implements Store. Cold records are dropped from the index;
// a segment whose records are all dropped is closed, its cache spans
// invalidated, and its file deleted — retention releases disk, not just
// address space. In-flight readers of the deleted segment finish
// safely: the unlink happens at once, the munmap when their pins drain.
func (t *Tiered) DropBefore(cutoff record.PeriodID) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, ErrClosed
	}
	hotDropped, hotBits := t.hot.dropBefore(cutoff)
	t.hotBits.Add(-hotBits)
	coldDropped := 0
	for loc, byP := range t.cold {
		for p := range byP {
			if p < cutoff {
				t.dropColdLocked(loc, p)
				coldDropped++
			}
		}
	}
	err := t.gcSegmentsLocked()
	return hotDropped + coldDropped, err
}

// RetainLatest implements Store.
func (t *Tiered) RetainLatest(loc vhash.LocationID, n int) (int, error) {
	periods := t.Periods(loc)
	if len(periods) <= n {
		return 0, nil
	}
	cut := retainCut(periods, n)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, ErrClosed
	}
	hotDropped, hotBits := t.hot.dropAt(loc, cut)
	t.hotBits.Add(-hotBits)
	coldDropped := 0
	for p := range t.cold[loc] {
		if p < cut {
			t.dropColdLocked(loc, p)
			coldDropped++
		}
	}
	err := t.gcSegmentsLocked()
	return hotDropped + coldDropped, err
}

// dropColdLocked removes one cold index entry. Caller holds mu.
func (t *Tiered) dropColdLocked(loc vhash.LocationID, p record.PeriodID) {
	byP := t.cold[loc]
	ref, ok := byP[p]
	if !ok {
		return
	}
	delete(byP, p)
	if len(byP) == 0 {
		delete(t.cold, loc)
	}
	if seg := t.segs[ref.seg]; seg != nil {
		t.coldBits -= int64(seg.entries[ref.idx].nbits)
	}
}

// gcSegmentsLocked deletes every segment with no live index entries.
// Caller holds mu.
func (t *Tiered) gcSegmentsLocked() error {
	live := make(map[uint64]bool, len(t.segs))
	for _, byP := range t.cold {
		for _, ref := range byP {
			live[ref.seg] = true
		}
	}
	var firstErr error
	for id, seg := range t.segs {
		if live[id] {
			continue
		}
		delete(t.segs, id)
		t.cache.InvalidateSegment(id)
		if err := seg.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := os.Remove(seg.path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: deleting retired segment: %w", err)
		}
	}
	return firstErr
}

// Sorted implements Store. The whole call runs under the tiering read
// lock (cold records must not be retired while fn reads them); cold
// words are CRC-checked and viewed directly off the mapping, bypassing
// the block cache so a full scan cannot evict the query working set.
func (t *Tiered) Sorted(fn func(recs []*record.Record) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	recs := t.hot.appendAll(nil)
	for loc, byP := range t.cold {
		for p, ref := range byP {
			seg := t.segs[ref.seg]
			if err := seg.verifyEntry(ref.idx); err != nil {
				return err
			}
			bm, err := fromColdWords(seg.entryWords(ref.idx))
			if err != nil {
				return err
			}
			recs = append(recs, &record.Record{Location: loc, Period: p, Bitmap: bm})
		}
	}
	sortRecords(recs)
	return fn(recs)
}

// Stats implements Store.
func (t *Tiered) Stats() Stats {
	st := t.hot.Stats()
	hotLocs := st.Locations
	t.mu.RLock()
	coldRecs := 0
	extraLocs := 0
	for loc, byP := range t.cold {
		coldRecs += len(byP)
		if !t.hotHasLoc(loc) {
			extraLocs++
		}
	}
	st.ColdRecords = coldRecs
	st.ColdBits = t.coldBits
	st.Segments = len(t.segs)
	t.mu.RUnlock()
	st.Locations = hotLocs + extraLocs
	st.Records += coldRecs
	st.Bits += st.ColdBits
	return st
}

// hotHasLoc reports whether the hot tier holds any record at loc.
func (t *Tiered) hotHasLoc(loc vhash.LocationID) bool {
	sh := t.hot.shardFor(loc)
	sh.mu.RLock()
	_, ok := sh.byLoc[loc]
	sh.mu.RUnlock()
	return ok
}

// CacheStats implements CacheStatser.
func (t *Tiered) CacheStats() CacheStats { return t.cache.Stats() }

// Close implements Store: marks the store closed and releases every
// mapping (deferred past any in-flight reader's pins).
func (t *Tiered) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var firstErr error
	for id, seg := range t.segs {
		delete(t.segs, id)
		if err := seg.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fromColdWords wraps a cold word view as a sealed, read-only bitmap —
// the zero-copy hand-off from mapped pages to the join kernels.
func fromColdWords(words []uint64) (*bitmap.Bitmap, error) {
	bm, err := bitmap.FromWords(words)
	if err != nil {
		return nil, fmt.Errorf("store: wrapping cold record: %w", err)
	}
	return bm, nil
}
