package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

// NotLeaderPrefix prefixes every ingest rejection issued because this
// node does not lead the record's partition. The router string-matches
// it on RemoteErrors to distinguish "wrong node, refresh the ring and
// retry" from genuine ingest failures.
const NotLeaderPrefix = "cluster: not leader"

// IsNotLeader reports whether err is a leader-gate rejection (local, or
// carried back through the transport as a RemoteError — possibly inside
// the batch handler's "record i/n:" wrapper, hence substring matching).
func IsNotLeader(err error) bool {
	return err != nil && strings.Contains(err.Error(), NotLeaderPrefix)
}

// IsLeaderless reports whether err is an ErrNoLeader rejection (a down,
// unpromoted primary), in any transport wrapping. The router treats it
// as retryable: the partition serves again after `ptmcluster failover`.
func IsLeaderless(err error) bool {
	return err != nil && strings.Contains(err.Error(), NoLeaderPrefix)
}

// Config parameterizes a cluster node.
type Config struct {
	// ID is this node's stable identity in the ring. Required.
	ID string
	// RingPath is where the accepted ring is persisted (atomically
	// rewritten on every accepted push, reloaded on startup). Required.
	RingPath string
	// ShipInterval is the replication shipper's period. 0 disables the
	// background shipper (tests drive ShipNow explicitly).
	ShipInterval time.Duration
	// DialTimeout bounds peer dials. Defaults to 5s. No call has a
	// deadline: a peer that accepts and never answers stalls the round.
	DialTimeout time.Duration
	// Logger receives shipper and ring-change events; nil discards.
	Logger *log.Logger
}

// peerState is the shipper's per-peer replication state.
type peerState struct {
	epoch     uint64 // ring epoch the watermark below is valid for
	shipped   uint64 // peer holds every record it needs from WAL segments <= shipped
	lag       uint64 // sealed - shipped at the last round
	records   int64  // records sent since startup
	fullSyncs int64  // full-state resyncs performed
	lastErr   string // last shipping failure, "" when healthy
}

// Node wraps a WAL-backed central store with cluster behavior: it
// enforces leader-only ingest against the current ring, answers the
// cluster protocol frames (transport.Extension), and runs the
// replication shipper. With no ring installed the node is a plain
// standalone store — every record is accepted and nothing ships — so a
// single-node deployment needs no configuration at all.
//
// The embedded Durable serves all queries unchanged: estimator outputs
// are a pure function of store contents, and replication converges the
// contents, so any replica answers queries for the partitions it holds
// bit-identically to a single-node store.
//
//ptm:lockorder ringMu<mu
type Node struct {
	*central.Durable
	cfg   Config
	peers *transport.Peers // the shipper's connections, by peer address

	// ringMu serializes ring pushes across their epoch check, persist
	// and swap, so mu (and with it every upload's leader gate) is never
	// held across the persist's fsyncs.
	ringMu sync.Mutex

	// mu guards the ring view and the shipper bookkeeping. It is never
	// held across network calls, file writes, WAL replay, or store
	// operations wider than a field read — the shipper snapshots under
	// mu, works unlocked, and re-locks to record results.
	mu      sync.Mutex
	ring    *Ring                 //ptm:guardedby mu (nil until a ring is installed)
	water   map[string]*peerState //ptm:guardedby mu (by member ID; entries mutated only under mu)
	applied map[string]uint64     //ptm:guardedby mu (sender ID -> their WAL segment applied through)
	closed  bool                  //ptm:guardedby mu

	// shipMu is held across a whole replication round, so the
	// background shipper and an explicit ShipNow never ship to one
	// peer at once: two rounds would send the same records twice and
	// the slower one would set the watermark back.
	shipMu sync.Mutex

	quit chan struct{}
	done chan struct{}
}

// NewNode wraps an opened durable store. If cfg.RingPath exists its
// ring is installed immediately; otherwise the node starts standalone
// and waits for a push. The background shipper starts when
// cfg.ShipInterval > 0.
//
//ptm:exclusive NewNode
func NewNode(d *central.Durable, cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	if cfg.RingPath == "" {
		return nil, fmt.Errorf("cluster: node needs a ring path")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	n := &Node{
		Durable: d,
		cfg:     cfg,
		peers:   transport.NewPeers(cfg.DialTimeout),
		water:   make(map[string]*peerState),
		applied: make(map[string]uint64),
		quit:    make(chan struct{}),
		done:    make(chan struct{}, 1),
	}
	if b, err := os.ReadFile(cfg.RingPath); err == nil {
		r, err := DecodeRing(b)
		if err != nil {
			return nil, fmt.Errorf("cluster: loading %s: %w", cfg.RingPath, err)
		}
		n.ring = r
		cfg.Logger.Printf("cluster: node %s loaded ring epoch %d (%d members)", cfg.ID, r.Epoch, len(r.Members))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("cluster: loading %s: %w", cfg.RingPath, err)
	}
	if cfg.ShipInterval > 0 {
		go func() {
			n.shipLoop()
			n.done <- struct{}{}
		}()
	} else {
		n.done <- struct{}{}
	}
	return n, nil
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.cfg.ID }

// Ring returns a copy of the ring in effect, or nil when standalone.
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil {
		return nil
	}
	return n.ring.Clone()
}

// Ingest applies the leader gate and stores the record durably. With a
// ring installed, only the partition leader accepts uploads — followers
// reject with a NotLeaderPrefix error naming the leader so the router
// can re-route; a leaderless partition (down, unpromoted primary)
// rejects with ErrNoLeader until `ptmcluster failover`. A rejected
// record that closes its batch (not marked by record.MarkMore) still
// commits the batch's earlier records, as Durable.Ingest would have.
func (n *Node) Ingest(rec *record.Record) error {
	if rec == nil {
		return record.ErrNilBitmap
	}
	if err := n.gate(rec); err != nil {
		if !rec.TakeMore() {
			if cerr := n.Durable.Commit(); cerr != nil {
				return cerr
			}
		}
		return err
	}
	return n.Durable.Ingest(rec)
}

// gate is the leader check: nil when no ring is installed or this node
// leads rec's partition.
func (n *Node) gate(rec *record.Record) error {
	n.mu.Lock()
	r := n.ring
	n.mu.Unlock()
	if r == nil {
		return nil
	}
	leader, err := r.Leader(rec.Location)
	if err != nil {
		return err
	}
	if leader.ID != n.cfg.ID {
		return fmt.Errorf("%s for location %d: leader is %s@%s (epoch %d)",
			NotLeaderPrefix, rec.Location, leader.ID, leader.Addr, r.Epoch)
	}
	return nil
}

// Close stops the shipper and closes peer connections. It does NOT
// close the underlying durable store — the process that opened it owns
// that lifecycle (centrald checkpoints before closing).
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.quit)
	<-n.done
	return n.peers.Close()
}

// HandleFrame implements transport.Extension: the cluster protocol
// frames, served from the transport server's per-connection goroutines.
func (n *Node) HandleFrame(t transport.MsgType, payload []byte) (transport.MsgType, []byte, bool) {
	switch t {
	case transport.MsgRingGet:
		return transport.MsgRing, n.handleRingGet(), true
	case transport.MsgRingSet:
		return transport.MsgRing, n.handleRingSet(payload), true
	case transport.MsgReplBatch:
		return transport.MsgReplAck, n.handleReplBatch(payload), true
	case transport.MsgFetchRecords:
		return transport.MsgRecords, n.handleFetch(payload), true
	case transport.MsgStatus:
		return transport.MsgStatusResp, n.handleStatus(), true
	}
	return 0, nil, false
}

func (n *Node) handleRingGet() []byte {
	n.mu.Lock()
	r := n.ring
	n.mu.Unlock()
	if r == nil {
		return errPayload(fmt.Errorf("cluster: node %s has no ring configured", n.cfg.ID))
	}
	b, err := EncodeRing(r)
	if err != nil {
		return errPayload(err)
	}
	return okPayload(b)
}

// handleRingSet installs a pushed ring iff it is strictly newer than
// the one in effect. Re-pushing the current ring is an idempotent
// success; a ring at the current epoch with other contents is refused,
// so a repeated `ptmcluster init` or two admins racing at one epoch
// cannot fork the configuration. The ring is persisted before it is
// adopted: an acked configuration change must survive a crash, so a
// persist failure rejects the push and keeps the old ring. Pushes take
// turns on ringMu; mu is held only to read and to swap the pointer, so
// uploads pass the leader gate while the persist fsyncs.
func (n *Node) handleRingSet(payload []byte) []byte {
	r, err := DecodeRing(payload)
	if err != nil {
		return errPayload(err)
	}
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	n.mu.Lock()
	cur := n.ring
	n.mu.Unlock()
	if cur != nil {
		if r.Epoch == cur.Epoch {
			curEnc, err := canonicalRing(cur)
			if err != nil {
				return errPayload(err)
			}
			pushed, err := canonicalRing(r)
			if err != nil {
				return errPayload(err)
			}
			if !bytes.Equal(curEnc, pushed) {
				return errPayload(fmt.Errorf("cluster: ring epoch %d is already in effect with different contents; push a newer epoch", r.Epoch))
			}
			b, err := EncodeRing(cur)
			if err != nil {
				return errPayload(err)
			}
			return okPayload(b)
		}
		if r.Epoch < cur.Epoch {
			return errPayload(fmt.Errorf("cluster: stale ring epoch %d (current %d)", r.Epoch, cur.Epoch))
		}
	}
	enc, err := EncodeRing(r)
	if err != nil {
		return errPayload(err)
	}
	if err := wal.WriteFileAtomic(n.cfg.RingPath, func(w io.Writer) error {
		_, werr := w.Write(enc)
		return werr
	}); err != nil {
		return errPayload(fmt.Errorf("cluster: persisting ring: %w", err))
	}
	if err := wal.SyncDir(filepath.Dir(n.cfg.RingPath)); err != nil {
		return errPayload(fmt.Errorf("cluster: persisting ring: %w", err))
	}
	n.mu.Lock()
	n.ring = r
	n.mu.Unlock()
	n.cfg.Logger.Printf("cluster: node %s adopted ring epoch %d (%d members, R=%d)",
		n.cfg.ID, r.Epoch, len(r.Members), r.Replicas)
	return okPayload(enc)
}

// handleReplBatch applies a replication batch. Application bypasses the
// leader gate — replication is how non-leaders legitimately receive
// records — and goes through the durable store, so replicated records
// get the same WAL durability as uploaded ones. Every record but the
// last is marked (record.MarkMore), so the batch costs one fsync, taken
// by the last record's Ingest; a batch cut short by a failure commits
// what it logged before the error ack goes out. Duplicates are counted
// and skipped: immutable deduplicated records make redelivery free.
func (n *Node) handleReplBatch(payload []byte) []byte {
	h, batch, err := decodeReplBatch(payload)
	if err != nil {
		return encodeReplAck(replAck{Err: err.Error()})
	}
	recs, err := transport.DecodeRecordBatch(batch)
	if err != nil {
		return encodeReplAck(replAck{Err: err.Error()})
	}
	for _, rec := range recs[:len(recs)-1] {
		rec.MarkMore()
	}
	appliedN, dups := 0, 0
	for _, rec := range recs {
		switch err := n.Durable.Ingest(rec); {
		case err == nil:
			appliedN++
		case errors.Is(err, central.ErrDuplicate):
			dups++
		default:
			err = errors.Join(err, n.Durable.Commit())
			return encodeReplAck(replAck{Err: err.Error(), Applied: appliedN, Dups: dups})
		}
	}
	n.mu.Lock()
	if h.Through > n.applied[h.From] {
		n.applied[h.From] = h.Through
	}
	n.mu.Unlock()
	return encodeReplAck(replAck{OK: true, Applied: appliedN, Dups: dups})
}

// handleFetch serves the records of one location at the requested
// periods, in request order: the operands of the router's
// cross-partition point-to-point join. A missing period fails the
// whole fetch.
func (n *Node) handleFetch(payload []byte) []byte {
	loc, periods, err := decodeFetch(payload)
	if err != nil {
		return errPayload(err)
	}
	blobs, err := n.RecordBlobs(loc, periods)
	if err != nil {
		return errPayload(err)
	}
	batch, err := transport.EncodeRecordBlobs(blobs)
	if err != nil {
		return errPayload(err)
	}
	return okPayload(batch)
}

func (n *Node) handleStatus() []byte {
	st := n.StatusSnapshot()
	b, err := encodeStatus(st)
	if err != nil {
		return errPayload(err)
	}
	return okPayload(b)
}

// StatusSnapshot assembles the node's cluster status (also surfaced on
// centrald's HTTP /stats page).
func (n *Node) StatusSnapshot() Status {
	n.mu.Lock()
	st := Status{
		ID:      n.cfg.ID,
		State:   "unconfigured",
		Peers:   make(map[string]PeerStatus, len(n.water)),
		Applied: make(map[string]uint64, len(n.applied)),
	}
	if n.ring != nil {
		st.RingEpoch = n.ring.Epoch
		if m, ok := n.ring.Member(n.cfg.ID); ok {
			st.State = m.State.String()
		} else {
			st.State = "not-a-member"
		}
	}
	for id, ws := range n.water {
		st.Peers[id] = PeerStatus{
			Shipped:   ws.shipped,
			Lag:       ws.lag,
			Records:   ws.records,
			FullSyncs: ws.fullSyncs,
			LastErr:   ws.lastErr,
		}
	}
	for id, seg := range n.applied {
		st.Applied[id] = seg
	}
	n.mu.Unlock()

	// Store and WAL reads happen outside mu: they take their own locks
	// and never call back into the node.
	st.S = n.S()
	st.Locations = len(n.Locations())
	st.WALFirst, st.WALActive = n.Log().Segments()
	return st
}

// canonicalRing encodes r with its members sorted by ID, so two rings
// that differ only in member order compare equal.
func canonicalRing(r *Ring) ([]byte, error) {
	c := r.Clone()
	c.SortMembers()
	return EncodeRing(c)
}
