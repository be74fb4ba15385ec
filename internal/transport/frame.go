// Package transport implements the backhaul between RSUs and the central
// server (Section II-A: "All RSUs are connected wirelessly or by wire to a
// central server"): a length-prefixed binary protocol over TCP for record
// upload and persistent-traffic queries, plus an in-memory pipe transport
// for tests.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MsgType discriminates protocol frames.
type MsgType uint8

// Protocol message types. Each number is written out: it is what goes
// on the wire, so a new type takes the next free number and no existing
// one ever moves (TestMsgTypeNumbersPinned holds them).
const (
	// MsgUpload carries one marshaled traffic record (RSU -> server).
	MsgUpload MsgType = 1
	// MsgUploadAck acknowledges an upload (server -> RSU).
	MsgUploadAck MsgType = 2
	// MsgQueryVolume requests a per-period volume estimate.
	MsgQueryVolume MsgType = 3
	// MsgQueryPoint requests a point persistent estimate.
	MsgQueryPoint MsgType = 4
	// MsgQueryP2P requests a point-to-point persistent estimate.
	MsgQueryP2P MsgType = 5
	// MsgResult carries a query result (server -> client).
	MsgResult MsgType = 6
	// MsgListLocations requests the stored location IDs.
	MsgListLocations MsgType = 7
	// MsgLocations carries the location list (server -> client).
	MsgLocations MsgType = 8
	// MsgListPeriods requests the stored periods for one location.
	MsgListPeriods MsgType = 9
	// MsgPeriods carries the period list (server -> client).
	MsgPeriods MsgType = 10
	// MsgUploadBatch carries several length-prefixed marshaled records in
	// one frame (RSU -> server), amortizing one round trip over the
	// batch.
	MsgUploadBatch MsgType = 11
	// MsgUploadBatchAck acknowledges a batch, reporting how many records
	// were accepted and the first per-record failure, if any.
	MsgUploadBatchAck MsgType = 12

	// Cluster extension frames (internal/cluster). The core server
	// delegates these to its store's Extension implementation; a
	// non-cluster store answers them with a MsgResult failure.

	// MsgRingGet requests a node's current ring configuration.
	MsgRingGet MsgType = 13
	// MsgRing carries a ring configuration (node -> client, and the
	// response to MsgRingSet, echoing the ring now in effect).
	MsgRing MsgType = 14
	// MsgRingSet installs a ring configuration on a node if it is newer
	// than the one in effect (admin -> node).
	MsgRingSet MsgType = 15
	// MsgReplBatch carries replicated records from a partition leader to
	// a follower, with the shipper's watermark header.
	MsgReplBatch MsgType = 16
	// MsgReplAck acknowledges a replication batch once every record in
	// it is as durable on the follower as its store promises.
	MsgReplAck MsgType = 17
	// MsgFetchRecords requests one location's records at the named
	// periods (router -> node), for cross-partition joins computed
	// client-side.
	MsgFetchRecords MsgType = 18
	// MsgRecords carries a batch of marshaled records (node -> router).
	MsgRecords MsgType = 19
	// MsgStatus requests a node's cluster status summary.
	MsgStatus MsgType = 20
	// MsgStatusResp carries the JSON-encoded status summary.
	MsgStatusResp MsgType = 21
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgUpload:
		return "UPLOAD"
	case MsgUploadAck:
		return "UPLOAD_ACK"
	case MsgQueryVolume:
		return "QUERY_VOLUME"
	case MsgQueryPoint:
		return "QUERY_POINT"
	case MsgQueryP2P:
		return "QUERY_P2P"
	case MsgResult:
		return "RESULT"
	case MsgListLocations:
		return "LIST_LOCATIONS"
	case MsgLocations:
		return "LOCATIONS"
	case MsgListPeriods:
		return "LIST_PERIODS"
	case MsgPeriods:
		return "PERIODS"
	case MsgUploadBatch:
		return "UPLOAD_BATCH"
	case MsgUploadBatchAck:
		return "UPLOAD_BATCH_ACK"
	case MsgRingGet:
		return "RING_GET"
	case MsgRing:
		return "RING"
	case MsgRingSet:
		return "RING_SET"
	case MsgReplBatch:
		return "REPL_BATCH"
	case MsgReplAck:
		return "REPL_ACK"
	case MsgFetchRecords:
		return "FETCH_RECORDS"
	case MsgRecords:
		return "RECORDS"
	case MsgStatus:
		return "STATUS"
	case MsgStatusResp:
		return "STATUS_RESP"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// MaxFrameSize bounds a frame's payload: large enough for a maximal
// record (2^30 bits = 128 MiB plus headers), small enough to reject
// nonsense lengths from corrupted streams.
const MaxFrameSize = 1<<27 + 1024

// Frame codec errors.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")
	ErrBadFrame      = errors.New("transport: malformed frame")
)

// frameHeaderLen is the fixed frame prologue: 4-byte little-endian
// payload length plus the type byte.
const frameHeaderLen = 5

// putFrameHeader encodes the frame prologue into a caller-owned buffer.
// Taking a fixed-size array pointer (rather than returning a slice)
// keeps the header on the caller's stack — or in a reused struct field
// on the Client's pipelined send path — so frame encoding itself never
// allocates.
//
//ptm:noalloc
//ptm:inline
//ptm:nobce
func putFrameHeader(hdr *[frameHeaderLen]byte, t MsgType, payloadLen int) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	hdr[4] = byte(t)
}

// WriteFrame writes one frame: 4-byte little-endian payload length, the
// type byte, then the payload.
//
//ptm:sink transport frame
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [frameHeaderLen]byte
	putFrameHeader(&hdr, t, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: writing frame header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("transport: writing frame payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err // io.EOF propagates for clean shutdown
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: claimed %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: reading frame payload: %w", err)
	}
	return MsgType(hdr[4]), payload, nil
}
