package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"
)

// mapping is a read-only view of a segment file's bytes. On platforms
// with mmap it is a shared file mapping — the kernel's page cache is
// the storage, the process pays RSS only for pages it touches, and
// releasing a span is an madvise away. Elsewhere it is a plain read of
// the file into a word-aligned heap buffer (correct, just not
// out-of-core).
type mapping struct {
	data    []byte
	mmapped bool
	// backing keeps the word-aligned heap buffer reachable on the
	// fallback path (data aliases it).
	backing []uint64
}

// hostLittleEndian reports whether the running host stores uint64s
// little-endian — the precondition for reinterpreting mapped segment
// bytes as words without a decode.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// mapSegmentFile opens path and maps or reads it.
func mapSegmentFile(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	defer closeQuiet(f)
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	size := fi.Size()
	if size < segHeaderLen {
		return nil, fmt.Errorf("%w: %s: %d bytes, shorter than the header", ErrSegCorrupt, path, size)
	}
	const maxSegBytes = 1 << 40 // address-space sanity bound, far above any real segment
	if size > maxSegBytes {
		return nil, fmt.Errorf("store: %s: implausible segment size %d", path, size)
	}
	return mapFile(f, size)
}

// wordsView reinterprets n uint64 words stored little-endian at
// data[off:]. When the host is little-endian and the bytes are 8-byte
// aligned (segment offsets are 64-byte aligned, so mapped and
// word-aligned-heap backings both qualify) the returned slice aliases
// data — the zero-copy path the whole cold tier is built around.
// Otherwise it decodes into a fresh slice. Callers must treat the
// result as read-only; a mapped backing is PROT_READ and faults on
// write, which is exactly the sealed-record contract.
func wordsView(data []byte, off, n int) []uint64 {
	b := data[off : off+n*8]
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// leChunks calls fn with the little-endian byte encoding of words — the
// inverse of wordsView. On little-endian hosts that is one call on bytes
// aliasing words (no copy); elsewhere the words are encoded chunk by
// chunk through scratch. fn must not retain or modify its argument.
func leChunks(words []uint64, scratch []byte, fn func([]byte) error) error {
	if len(words) == 0 {
		return nil
	}
	if hostLittleEndian {
		return fn(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8))
	}
	per := len(scratch) / 8
	for len(words) > 0 {
		n := min(per, len(words))
		for i := range n {
			binary.LittleEndian.PutUint64(scratch[i*8:], words[i])
		}
		if err := fn(scratch[:n*8]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

// closeQuiet closes f discarding the error: used only on read-only
// descriptors whose data has already been validated or mapped.
func closeQuiet(f *os.File) {
	//ptmlint:allow errdrop -- read-only descriptor; the data was already read or mapped
	_ = f.Close()
}
