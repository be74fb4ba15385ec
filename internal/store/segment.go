package store

// The checkpoint segment: the cold tier's immutable on-disk unit. A
// segment holds a batch of sealed records, indexed for point lookup and
// laid out so a mapped segment needs no deserialization at all:
//
//	header, 64 bytes (all integers little-endian):
//	  [0:4)    magic   "PTSG"
//	  [4]      version 1
//	  [5:8)    reserved, zero
//	  [8:12)   count   uint32  number of records
//	  [12:16)  reserved, zero
//	  [16:24)  indexLen uint64  bytes of index incl. its CRC (count*32+4)
//	  [24:32)  dataOff  uint64  start of the data region, 4096-aligned
//	  [32:40)  dataLen  uint64  bytes in the data region
//	  [40:60)  reserved, zero
//	  [60:64)  crc32   IEEE, over bytes [0:60)
//
//	index, at offset 64: count entries of 32 bytes, sorted strictly by
//	(location, period), followed by a crc32 over all entry bytes:
//	  [0:8)    location uint64
//	  [8:12)   period   uint32
//	  [12:16)  nbits    uint32  bitmap size; power of two in [64, MaxBits]
//	  [16:24)  wordOff  uint64  absolute offset of the record's words,
//	                            64-byte aligned, inside the data region
//	  [24:28)  wordCRC  uint32  IEEE, over the nbits/8 word bytes
//	  [28:32)  reserved, zero
//
//	data, at dataOff: each record's bitmap words, little-endian uint64s
//	(bit i of the bitmap is bit i%64 of word i/64 — the in-memory layout
//	of bitmap.Bitmap, byte-for-byte on little-endian hosts). Records
//	appear in index order; alignment gaps are zero.
//
// The page alignment of dataOff and the 64-byte alignment of every
// wordOff mean a mapped record's words can be reinterpreted in place as
// a []uint64, wrapped by bitmap.FromWords and handed to the join
// kernels (bitmap.AndOnes) with zero copies. Header and index CRCs are
// verified at open; per-record word CRCs are verified lazily, when the
// block cache admits the span (the bytes are about to be streamed
// anyway) — so opening a huge segment is O(index), not O(data).
//
// Segments are written via wal.WriteFileAtomic (temp file, fsync,
// rename, dir fsync), so a crash mid-freeze leaves either no segment or
// a complete one — the same commit protocol, and the same crash-safety
// argument, as WAL checkpoint compaction.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"
	"sync"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

const (
	// segMagic identifies a segment file ("PTSG" read as a little-endian
	// uint32).
	segMagic = 0x47535450

	segVersion   = 1
	segHeaderLen = 64
	segEntryLen  = 32
	// segPageAlign is the data region's alignment: one 4 KiB page, fixed
	// as a format constant (independent of the runtime page size) so
	// segments are portable across hosts.
	segPageAlign = 4096
	// segWordAlign aligns every record's words for the cast to []uint64
	// and for full-cache-line starts under the block kernels.
	segWordAlign = 64
	// segMaxCount caps records per segment; with 32-byte entries this
	// bounds the index a parser may allocate at 1 GiB worth of entries
	// only if the file really is that large (count is cross-checked
	// against the file size before any allocation).
	segMaxCount = 1 << 25
)

// ErrSegCorrupt tags every segment parse failure.
var ErrSegCorrupt = errors.New("store: corrupt segment")

// segEntry is one parsed index entry.
type segEntry struct {
	loc    vhash.LocationID
	period record.PeriodID
	nbits  uint32
	off    uint64 // absolute byte offset of the record's words
	crc    uint32
}

// wordBytes returns the byte length of the entry's words.
//
//ptm:noalloc
//ptm:inline
func (e *segEntry) wordBytes() uint64 { return uint64(e.nbits / 8) }

// segFileName names segment id within a store directory. Fixed-width
// decimal so lexical directory order is id order.
func segFileName(id uint64) string { return fmt.Sprintf("%018d.seg", id) }

// alignUp rounds n up to the next multiple of align (a power of two).
//
//ptm:noalloc
//ptm:inline
func alignUp(n, align uint64) uint64 { return (n + align - 1) &^ (align - 1) }

// validBitmapBits reports whether nbits is a legal bitmap size: a power
// of two in [64, bitmap.MaxBits].
//
//ptm:noalloc
//ptm:inline
func validBitmapBits(nbits uint32) bool {
	return nbits >= 64 && nbits <= bitmap.MaxBits && nbits&(nbits-1) == 0
}

// parseSegment validates a segment image and returns its index. It
// performs every bounds check explicitly against len(data) before
// slicing, allocates nothing proportional to claimed (rather than
// actual) sizes, and never reads the data region — per-record CRCs are
// the reader's job (Segment.verifyEntry). This is the single parser of
// record-set files: behind the mmap store, the tiered cold tier,
// ReadSegment (snapshot and WAL checkpoint restore), and FuzzSegmentLoad.
func parseSegment(data []byte) ([]segEntry, error) {
	size := uint64(len(data))
	if size < segHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the header", ErrSegCorrupt, size)
	}
	if leU32(data[0:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSegCorrupt)
	}
	if data[4] != segVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSegCorrupt, data[4])
	}
	if crc32.ChecksumIEEE(data[:60]) != leU32(data[60:64]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrSegCorrupt)
	}
	for _, i := range []int{5, 6, 7, 12, 13, 14, 15} {
		if data[i] != 0 {
			return nil, fmt.Errorf("%w: nonzero reserved header byte %d", ErrSegCorrupt, i)
		}
	}
	for i := 40; i < 60; i++ {
		if data[i] != 0 {
			return nil, fmt.Errorf("%w: nonzero reserved header byte %d", ErrSegCorrupt, i)
		}
	}
	count := uint64(leU32(data[8:12]))
	indexLen := leU64(data[16:24])
	dataOff := leU64(data[24:32])
	dataLen := leU64(data[32:40])

	if count > segMaxCount {
		return nil, fmt.Errorf("%w: %d records exceeds the per-segment cap", ErrSegCorrupt, count)
	}
	if indexLen != count*segEntryLen+4 {
		return nil, fmt.Errorf("%w: index length %d does not match count %d", ErrSegCorrupt, indexLen, count)
	}
	// All region arithmetic below stays in uint64 and is checked against
	// size before any slice expression, so a lying header can never
	// index out of bounds (FuzzSegmentLoad's contract).
	if segHeaderLen+indexLen > size {
		return nil, fmt.Errorf("%w: index (%d bytes) exceeds file size %d", ErrSegCorrupt, indexLen, size)
	}
	if dataOff%segPageAlign != 0 {
		return nil, fmt.Errorf("%w: data offset %d not page aligned", ErrSegCorrupt, dataOff)
	}
	if dataOff < segHeaderLen+indexLen || dataOff > size || dataLen > size-dataOff {
		return nil, fmt.Errorf("%w: data region [%d, %d+%d) outside file of %d bytes", ErrSegCorrupt, dataOff, dataOff, dataLen, size)
	}
	if dataOff+dataLen != size {
		return nil, fmt.Errorf("%w: %d trailing bytes after the data region", ErrSegCorrupt, size-dataOff-dataLen)
	}

	index := data[segHeaderLen : segHeaderLen+indexLen]
	entryBytes := index[:len(index)-4]
	if crc32.ChecksumIEEE(entryBytes) != leU32(index[len(index)-4:]) {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrSegCorrupt)
	}

	entries := make([]segEntry, count)
	cursor := dataOff // records must be laid out in order, without overlap
	for i := range entries {
		raw := entryBytes[i*segEntryLen : (i+1)*segEntryLen]
		e := segEntry{
			loc:    vhash.LocationID(leU64(raw[0:8])),
			period: record.PeriodID(leU32(raw[8:12])),
			nbits:  leU32(raw[12:16]),
			off:    leU64(raw[16:24]),
			crc:    leU32(raw[24:28]),
		}
		if leU32(raw[28:32]) != 0 {
			return nil, fmt.Errorf("%w: entry %d has nonzero reserved bytes", ErrSegCorrupt, i)
		}
		if !validBitmapBits(e.nbits) {
			return nil, fmt.Errorf("%w: entry %d has invalid bitmap size %d", ErrSegCorrupt, i, e.nbits)
		}
		if i > 0 {
			prev := &entries[i-1]
			if e.loc < prev.loc || (e.loc == prev.loc && e.period <= prev.period) {
				return nil, fmt.Errorf("%w: entries not strictly sorted at %d", ErrSegCorrupt, i)
			}
		}
		if e.off%segWordAlign != 0 {
			return nil, fmt.Errorf("%w: entry %d words at %d not %d-byte aligned", ErrSegCorrupt, i, e.off, segWordAlign)
		}
		if e.off < cursor || e.off > size || e.wordBytes() > size-e.off {
			return nil, fmt.Errorf("%w: entry %d words [%d, %d+%d) out of bounds", ErrSegCorrupt, i, e.off, e.off, e.wordBytes())
		}
		cursor = e.off + e.wordBytes()
		entries[i] = e
	}
	if cursor > dataOff+dataLen {
		return nil, fmt.Errorf("%w: records overrun the data region", ErrSegCorrupt)
	}
	return entries, nil
}

// WriteSegment streams a segment holding recs, which must be sorted
// strictly by (location, period). It is the one writer of record-set
// files: cold-tier freezes, WAL checkpoints and centrald -save. recs
// may be empty — a store that retention emptied still checkpoints.
// Typically wrapped in wal.WriteFileAtomic so the segment appears
// atomically.
func WriteSegment(w io.Writer, recs []*record.Record) error {
	if len(recs) > segMaxCount {
		return fmt.Errorf("store: %d records exceeds the per-segment cap", len(recs))
	}
	for i, r := range recs {
		if r == nil || r.Validate() != nil {
			return fmt.Errorf("store: segment record %d invalid", i)
		}
		if i > 0 {
			p := recs[i-1]
			if r.Location < p.Location || (r.Location == p.Location && r.Period <= p.Period) {
				return fmt.Errorf("store: segment records not strictly sorted by (location, period) at %d", i)
			}
		}
	}

	count := uint64(len(recs))
	indexLen := count*segEntryLen + 4
	dataOff := alignUp(segHeaderLen+indexLen, segPageAlign)
	offs := make([]uint64, len(recs))
	cursor := dataOff
	for i, r := range recs {
		cursor = alignUp(cursor, segWordAlign)
		offs[i] = cursor
		cursor += uint64(len(r.Bitmap.Uint64s()) * 8)
	}
	dataLen := cursor - dataOff

	scratch := make([]byte, 64*1024)

	var hdr [segHeaderLen]byte
	putU32(hdr[0:4], segMagic)
	hdr[4] = segVersion
	putU32(hdr[8:12], uint32(count))
	putU64(hdr[16:24], indexLen)
	putU64(hdr[24:32], dataOff)
	putU64(hdr[32:40], dataLen)
	putU32(hdr[60:64], crc32.ChecksumIEEE(hdr[:60]))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing segment header: %w", err)
	}

	indexCRC := crc32.NewIEEE()
	var ent [segEntryLen]byte
	for i, r := range recs {
		putU64(ent[0:8], uint64(r.Location))
		putU32(ent[8:12], uint32(r.Period))
		putU32(ent[12:16], uint32(r.Bitmap.Size()))
		putU64(ent[16:24], offs[i])
		putU32(ent[24:28], wordsCRC(r.Bitmap.Uint64s(), scratch))
		putU32(ent[28:32], 0)
		//ptmlint:allow errdrop -- hash.Hash.Write never fails
		_, _ = indexCRC.Write(ent[:])
		if _, err := w.Write(ent[:]); err != nil {
			return fmt.Errorf("store: writing segment index: %w", err)
		}
	}
	var crcBuf [4]byte
	putU32(crcBuf[:], indexCRC.Sum32())
	if _, err := w.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("store: writing segment index checksum: %w", err)
	}

	if err := writeZeros(w, dataOff-(segHeaderLen+indexLen), scratch); err != nil {
		return err
	}
	pos := dataOff
	for i, r := range recs {
		if err := writeZeros(w, offs[i]-pos, scratch); err != nil {
			return err
		}
		if err := writeWordsLE(w, r.Bitmap.Uint64s(), scratch); err != nil {
			return err
		}
		pos = offs[i] + uint64(len(r.Bitmap.Uint64s())*8)
	}
	return nil
}

// wordsCRC computes the IEEE CRC32 of the words' little-endian byte
// encoding, with no payload-sized buffer.
func wordsCRC(words []uint64, scratch []byte) uint32 {
	crc := uint32(0)
	//ptmlint:allow errdrop -- the chunk callback never fails
	_ = leChunks(words, scratch, func(b []byte) error {
		crc = crc32.Update(crc, crc32.IEEETable, b)
		return nil
	})
	return crc
}

// writeWordsLE streams the words' little-endian encoding.
func writeWordsLE(w io.Writer, words []uint64, scratch []byte) error {
	return leChunks(words, scratch, func(b []byte) error {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("store: writing segment words: %w", err)
		}
		return nil
	})
}

// writeZeros writes n zero bytes (alignment padding).
func writeZeros(w io.Writer, n uint64, scratch []byte) error {
	clear(scratch[:min(n, uint64(len(scratch)))])
	for n > 0 {
		c := min(n, uint64(len(scratch)))
		if _, err := w.Write(scratch[:c]); err != nil {
			return fmt.Errorf("store: writing segment padding: %w", err)
		}
		n -= c
	}
	return nil
}

// Segment is an open, parsed segment file. The mapping and index are
// immutable after OpenSegment; the pin count tracks cold-tier readers
// (block-cache spans and in-flight queries) so Close can defer the
// munmap until the last reader drains — unlinking a live segment is
// then safe at any time.
type Segment struct {
	path    string
	id      uint64
	m       *mapping
	entries []segEntry

	mu sync.Mutex
	//ptm:guardedby mu
	pins int
	//ptm:guardedby mu
	closed bool
}

// OpenSegment maps (or, on platforms without mmap, reads) a segment
// file and validates its header and index.
func OpenSegment(path string, id uint64) (*Segment, error) {
	m, err := mapSegmentFile(path)
	if err != nil {
		return nil, err
	}
	entries, err := parseSegment(m.data)
	if err != nil {
		//ptmlint:allow errdrop -- the parse error is what the caller sees; unmap is best-effort cleanup
		_ = m.close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return &Segment{path: path, id: id, m: m, entries: entries}, nil
}

// find returns the index of the entry for (loc, p), or -1.
func (s *Segment) find(loc vhash.LocationID, p record.PeriodID) int {
	i := sort.Search(len(s.entries), func(i int) bool {
		e := &s.entries[i]
		return e.loc > loc || (e.loc == loc && e.period >= p)
	})
	if i < len(s.entries) && s.entries[i].loc == loc && s.entries[i].period == p {
		return i
	}
	return -1
}

// entryWords returns entry i's words. On little-endian hosts this is a
// zero-copy view of the mapping; otherwise a decoded copy.
func (s *Segment) entryWords(i int) []uint64 {
	e := &s.entries[i]
	return wordsView(s.m.data, int(e.off), int(e.nbits)/64)
}

// verifyEntry checks entry i's word CRC against the mapped bytes. The
// block cache calls it on admission — the one moment the span's bytes
// are about to be streamed anyway — so a record damaged at rest is
// rejected before any estimator sees it, at zero extra passes in the
// steady state.
func (s *Segment) verifyEntry(i int) error {
	e := &s.entries[i]
	got := crc32.ChecksumIEEE(s.m.data[e.off : e.off+e.wordBytes()])
	if got != e.crc {
		return fmt.Errorf("%w: %s: record loc=%d period=%d checksum mismatch", ErrSegCorrupt, s.path, e.loc, e.period)
	}
	return nil
}

// releaseEntry advises the OS to drop entry i's backing pages (clean,
// file-backed: a later read simply refaults them). Only whole pages
// inside the span are released; a no-op on platforms without madvise.
func (s *Segment) releaseEntry(i int) error {
	e := &s.entries[i]
	return s.m.release(int(e.off), int(e.wordBytes()))
}

// pin takes a reference that keeps the mapping alive. It fails once the
// segment is closed.
func (s *Segment) pin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.pins++
	return true
}

// unpin drops a pin, unmapping if Close already ran and this was the
// last reader.
func (s *Segment) unpin() {
	s.mu.Lock()
	s.pins--
	last := s.closed && s.pins == 0
	s.mu.Unlock()
	if last {
		//ptmlint:allow errdrop -- deferred unmap of a segment already logically deleted; nothing can act on a failure here
		_ = s.m.close()
	}
}

// Close marks the segment unusable for new pins and unmaps it once the
// last in-flight reader unpins. Safe to call while queries hold pins —
// that is the point.
func (s *Segment) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	idle := s.pins == 0
	s.mu.Unlock()
	if idle {
		return s.m.close()
	}
	return nil
}

// ReadSegment maps the segment file at path and calls fn, in (location,
// period) order, with a heap copy of every record skip does not claim.
// Skipped records are never read; every other record's CRC is verified
// before it is copied, so the file is trusted no further than its
// checksums and is never read onto the heap whole.
func ReadSegment(path string, skip func(vhash.LocationID, record.PeriodID) bool, fn func(*record.Record) error) (err error) {
	seg, err := OpenSegment(path, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	}()
	for i := range seg.entries {
		e := &seg.entries[i]
		if skip(e.loc, e.period) {
			continue
		}
		if err := seg.verifyEntry(i); err != nil {
			return err
		}
		bm, err := bitmap.FromWords(slices.Clone(seg.entryWords(i)))
		if err != nil {
			return fmt.Errorf("store: %s: record loc=%d period=%d: %w", path, e.loc, e.period, err)
		}
		if err := fn(&record.Record{Location: e.loc, Period: e.period, Bitmap: bm}); err != nil {
			return err
		}
	}
	return nil
}

// scanSegmentDir lists the segment files in dir, sorted by id, and
// removes leftover temp files from an interrupted freeze (the atomic
// rename never happened, so they are invisible to recovery by design).
func scanSegmentDir(dir string) ([]uint64, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	var ids []uint64
	for _, de := range names {
		name := de.Name()
		if len(name) == len("000000000000000000.seg.tmp") && name[18:] == ".seg.tmp" {
			//ptmlint:allow errdrop -- leftover temp from an interrupted freeze; removal is best-effort hygiene
			_ = os.Remove(dir + "/" + name)
			continue
		}
		if len(name) != len("000000000000000000.seg") || name[18:] != ".seg" {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(name[:18], "%d", &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Little-endian helpers, kept local so the parser reads as layout math.

//ptm:noalloc
//ptm:inline
func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

//ptm:noalloc
//ptm:inline
func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

//ptm:noalloc
//ptm:inline
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

//ptm:noalloc
//ptm:inline
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
