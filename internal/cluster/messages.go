package cluster

// Wire schemas for the cluster extension frames. Control-plane payloads
// (ring, status, acks) are JSON — low rate, operator-auditable. The
// data plane (replication batches, record fetches) reuses the
// transport's binary record-batch codec, prefixed where needed with a
// small JSON header. Responses that can fail carry the listing-style
// status byte: 1 = ok followed by the payload, 0 followed by an error
// string.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// replHeader rides in front of every replication batch.
type replHeader struct {
	// From is the shipping node's ID.
	From string `json:"from"`
	// Epoch is the shipper's ring epoch; a receiver on an older ring
	// uses it as a hint to refresh.
	Epoch uint64 `json:"epoch"`
	// Through is the sender's WAL segment index this round ships
	// through. The receiver records it as its applied watermark for
	// From, which failover uses to pick the most-caught-up survivor.
	Through uint64 `json:"through"`
}

// replAck answers a replication batch.
type replAck struct {
	OK      bool   `json:"ok"`
	Applied int    `json:"applied"` // records newly ingested (duplicates excluded)
	Dups    int    `json:"dups"`    // records already present
	Err     string `json:"error,omitempty"`
}

// encodeReplBatch frames header + record batch: u16 LE header length,
// JSON header, then the transport record-batch payload.
func encodeReplBatch(h replHeader, batch []byte) ([]byte, error) {
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding repl header: %w", err)
	}
	if len(hj) > 1<<16-1 {
		return nil, fmt.Errorf("cluster: repl header %d bytes", len(hj))
	}
	buf := make([]byte, 2, 2+len(hj)+len(batch))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(hj)))
	buf = append(buf, hj...)
	buf = append(buf, batch...)
	return buf, nil
}

// decodeReplBatch splits a replication frame into header and batch.
func decodeReplBatch(p []byte) (replHeader, []byte, error) {
	if len(p) < 2 {
		return replHeader{}, nil, fmt.Errorf("cluster: repl frame %d bytes", len(p))
	}
	hl := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) < 2+hl {
		return replHeader{}, nil, fmt.Errorf("cluster: repl header claims %d bytes, %d remain", hl, len(p)-2)
	}
	var h replHeader
	if err := json.Unmarshal(p[2:2+hl], &h); err != nil {
		return replHeader{}, nil, fmt.Errorf("cluster: decoding repl header: %w", err)
	}
	if h.From == "" {
		return replHeader{}, nil, fmt.Errorf("cluster: repl header has no sender")
	}
	return h, p[2+hl:], nil
}

func encodeReplAck(a replAck) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		// A struct of bools, ints, and strings cannot fail to marshal.
		panic(err)
	}
	return b
}

func decodeReplAck(p []byte) (replAck, error) {
	var a replAck
	if err := json.Unmarshal(p, &a); err != nil {
		return replAck{}, fmt.Errorf("cluster: decoding repl ack: %w", err)
	}
	return a, nil
}

// okPayload frames a success response: status byte 1 then the body.
func okPayload(body []byte) []byte {
	return append([]byte{1}, body...)
}

// errPayload frames a failure response: status byte 0 then the message.
func errPayload(err error) []byte {
	return append([]byte{0}, err.Error()...)
}

// splitPayload undoes okPayload/errPayload.
func splitPayload(p []byte) ([]byte, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("cluster: empty response payload")
	}
	if p[0] != 1 {
		return nil, fmt.Errorf("cluster: remote: %s", p[1:])
	}
	return p[1:], nil
}

// DecodeResponse unwraps a status-byte-framed cluster response
// (MsgRing, MsgRecords, MsgStatusResp): the remote error when the
// status byte is 0, the body otherwise. Exported for the router and
// ptmcluster.
func DecodeResponse(p []byte) ([]byte, error) {
	return splitPayload(p)
}

// EncodeFetch frames a MsgFetchRecords request for the records of loc
// at the named periods. Exported for the router.
func EncodeFetch(loc vhash.LocationID, periods []record.PeriodID) []byte {
	return encodeFetch(loc, periods)
}

// encodeFetch frames a record-fetch request: the location as u64 LE,
// then each period as u32 LE, in the order the answer must follow.
func encodeFetch(loc vhash.LocationID, periods []record.PeriodID) []byte {
	b := make([]byte, 8, 8+4*len(periods))
	binary.LittleEndian.PutUint64(b, uint64(loc))
	for _, p := range periods {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	return b
}

// decodeFetch parses a record-fetch request. A request must name at
// least one period: the bare 8-byte form, which asked for every period
// stored at the location, is refused.
func decodeFetch(p []byte) (vhash.LocationID, []record.PeriodID, error) {
	if len(p) == 8 {
		return 0, nil, fmt.Errorf("cluster: fetch request names no periods (whole-location fetches are not served)")
	}
	if len(p) < 12 || (len(p)-8)%4 != 0 {
		return 0, nil, fmt.Errorf("cluster: fetch request %d bytes, want 8 + 4 per period", len(p))
	}
	loc := vhash.LocationID(binary.LittleEndian.Uint64(p))
	periods := make([]record.PeriodID, 0, (len(p)-8)/4)
	for b := p[8:]; len(b) > 0; b = b[4:] {
		periods = append(periods, record.PeriodID(binary.LittleEndian.Uint32(b)))
	}
	return loc, periods, nil
}

// PeerStatus is one peer's replication state as seen by the shipper.
type PeerStatus struct {
	// Shipped is the sender-side watermark: the peer has been sent every
	// needed record in WAL segments <= Shipped.
	Shipped uint64 `json:"shipped_segment"`
	// Lag is sealedSegments - Shipped at the last shipper round: how far
	// the peer trails the stable prefix.
	Lag uint64 `json:"lag_segments"`
	// Records counts records sent to this peer since startup.
	Records int64 `json:"records_shipped"`
	// FullSyncs counts full-state resyncs (epoch change, watermark
	// behind compaction, or first contact).
	FullSyncs int64 `json:"full_syncs"`
	// LastErr is the most recent shipping failure, empty when healthy.
	LastErr string `json:"last_error,omitempty"`
}

// Status is a node's cluster status summary, served on MsgStatus and
// mirrored on the HTTP /stats surface.
type Status struct {
	ID        string `json:"id"`
	RingEpoch uint64 `json:"ring_epoch"`
	// State is this node's state in its own ring view, or
	// "unconfigured" before any ring is installed.
	State     string `json:"state"`
	S         int    `json:"s"`
	Locations int    `json:"locations"`
	WALFirst  uint64 `json:"wal_first_segment"`
	WALActive uint64 `json:"wal_active_segment"`
	// Peers is the shipper's per-peer state, keyed by peer ID.
	Peers map[string]PeerStatus `json:"peers,omitempty"`
	// Applied maps a sending peer's ID to the WAL segment of theirs this
	// node has applied through — failover picks the survivor with the
	// highest applied watermark for the dead node.
	Applied map[string]uint64 `json:"applied,omitempty"`
}

func encodeStatus(st Status) ([]byte, error) {
	return json.Marshal(st)
}

// DecodeStatus parses a Status payload (after splitPayload); exported
// for ptmcluster and the router.
func DecodeStatus(p []byte) (Status, error) {
	var st Status
	if err := json.Unmarshal(p, &st); err != nil {
		return Status{}, fmt.Errorf("cluster: decoding status: %w", err)
	}
	return st, nil
}
