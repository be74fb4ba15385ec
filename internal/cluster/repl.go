package cluster

// The replication shipper. Every ShipInterval the node seals its WAL's
// stable prefix and, for each reachable peer, ships the records that
// peer needs:
//
//   - push-down: the leader of a partition ships to every other member
//     of the partition's replica set (Up followers and Joining members
//     catching up);
//   - push-up: a non-leader holding a partition's records (after a
//     failover, a drain, or a rebalance) ships them to the current
//     leader.
//
// Every record therefore reaches its full replica set in at most two
// hops, and since records are immutable and deduplicated by
// (location, period), redelivery along any path is harmless — the
// receiver's durable Ingest drops duplicates before they touch its WAL,
// so there is no echo amplification between mutually-shipping nodes.
//
// Progress is tracked with a per-peer watermark {epoch, shipped}: the
// peer has been sent everything it needs from WAL segments <= shipped,
// valid for ring epoch. A ring change or a checkpoint that compacted
// segments past the watermark invalidates it, and the shipper falls
// back to a full-state resync (all live records the peer needs, straight
// from the store, once a commit has published every sealed entry).
// Acked batches advance the watermark; failed rounds leave it alone and
// retry next round, at worst re-sending records the peer deduplicates.

import (
	"errors"
	"fmt"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

const (
	// maxShipBatch bounds records per replication frame.
	maxShipBatch = 512
	// maxShipBytes bounds a replication frame's payload (well under
	// transport.MaxFrameSize, leaving room for headers).
	maxShipBytes = 4 << 20
)

// shipLoop runs replication rounds until Close.
func (n *Node) shipLoop() {
	t := time.NewTicker(n.cfg.ShipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
			if err := n.ShipNow(); err != nil {
				n.cfg.Logger.Printf("cluster: node %s ship round: %v", n.cfg.ID, err)
			}
		}
	}
}

// ShipNow runs one replication round against every shippable peer and
// returns the first per-peer error (the round still visits every peer).
// Exported so tests and the smoke harness can drive replication
// deterministically instead of sleeping through ShipInterval. A call
// made while a round is running waits for it and then runs its own.
func (n *Node) ShipNow() error {
	n.shipMu.Lock()
	defer n.shipMu.Unlock()
	n.mu.Lock()
	r := n.ring
	n.mu.Unlock()
	if r == nil {
		return nil // standalone: nothing to ship
	}
	sealed, err := n.Log().Seal()
	if err != nil {
		return fmt.Errorf("cluster: sealing WAL: %w", err)
	}
	var first error
	for _, m := range r.Members {
		if m.ID == n.cfg.ID {
			continue
		}
		switch m.State {
		case StateUp, StateJoining:
			// reachable replication targets
		default:
			// Down is unreachable, Draining owns nothing and is being
			// emptied by its own shipper, Left is gone.
			continue
		}
		if err := n.shipPeer(r, m, sealed); err != nil && first == nil {
			first = fmt.Errorf("cluster: shipping to %s: %w", m.ID, err)
		}
	}
	n.prunePeers(r)
	return first
}

// shipPeer ships one peer's round through the connection cache, which
// redials once after a transport error (a peer restart leaves the
// cached connection dead) and reruns the round.
func (n *Node) shipPeer(r *Ring, m Member, sealed uint64) error {
	var sent int64
	var full bool
	err := n.peers.Call(m.Addr, func(c *transport.Client) error {
		s, f, err := n.shipOnce(c, r, m, sealed)
		sent, full = sent+s, f
		return err
	})
	n.mu.Lock()
	defer n.mu.Unlock()
	ws := n.waterLocked(m.ID)
	ws.records += sent
	if err != nil {
		ws.lastErr = err.Error()
		if sealed > ws.shipped {
			ws.lag = sealed - ws.shipped
		}
		return err
	}
	if full {
		ws.fullSyncs++
	}
	ws.epoch = r.Epoch
	ws.shipped = sealed
	ws.lag = 0
	ws.lastErr = ""
	return nil
}

// shipOnce performs one shipping attempt: full resync when the
// watermark is invalid, incremental WAL shipping otherwise (falling
// back to full if a checkpoint compacts the range mid-replay). Returns
// records sent and whether a full resync ran.
func (n *Node) shipOnce(c *transport.Client, r *Ring, m Member, sealed uint64) (sent int64, full bool, err error) {
	n.mu.Lock()
	ws := n.waterLocked(m.ID)
	epoch, shipped := ws.epoch, ws.shipped
	n.mu.Unlock()

	logFirst, _ := n.Log().Segments()
	if epoch != r.Epoch || shipped+1 < logFirst {
		sent, err = n.fullResync(c, r, m.ID, sealed)
		return sent, true, err
	}
	if shipped >= sealed {
		return 0, false, nil // peer is current
	}
	sent, err = n.shipSegments(c, r, m.ID, shipped+1, sealed)
	if err != nil {
		return sent, false, err
	}
	// A checkpoint may have dropped segments from under the replay; the
	// replay silently skips missing files, so re-check the range and
	// fall back to a full resync if it was compacted away.
	if f2, _ := n.Log().Segments(); f2 > shipped+1 {
		var sent2 int64
		sent2, err = n.fullResync(c, r, m.ID, sealed)
		return sent + sent2, true, err
	}
	return sent, false, nil
}

// fullResync ships every live record the peer needs, straight from the
// store (covers first contact, ring changes, and compaction races).
// The round's watermark moves to sealed, so the store must first hold
// every entry of the sealed segments: every one was logged before the
// seal, so a commit publishes it.
func (n *Node) fullResync(c *transport.Client, r *Ring, peer string, sealed uint64) (int64, error) {
	if err := n.Commit(); err != nil {
		return 0, err
	}
	var sent int64
	for _, loc := range n.Locations() {
		if !n.shouldShip(r, loc, peer) {
			continue
		}
		periods := n.Periods(loc)
		if len(periods) == 0 {
			continue // raced retention; nothing to ship
		}
		blobs, err := n.RecordBlobs(loc, periods)
		if err != nil {
			if errors.Is(err, central.ErrNotFound) {
				continue // raced retention; nothing to ship
			}
			return sent, err
		}
		s, err := n.sendBlobs(c, r, blobs, sealed)
		sent += s
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// shipSegments replays sealed WAL segments [from, to] and ships the
// entries whose location the peer needs, in bounded batches.
func (n *Node) shipSegments(c *transport.Client, r *Ring, peer string, from, to uint64) (int64, error) {
	var (
		pending      [][]byte
		pendingBytes int
		sent         int64
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		s, err := n.sendBatch(c, r, pending, to)
		sent += s
		pending, pendingBytes = pending[:0], 0
		return err
	}
	err := n.Log().ReplaySegments(from, to, func(payload []byte) error {
		// The WAL's CRC covered the entry and the follower decodes it in
		// full; the location is all the filter needs.
		loc, _, err := record.UnmarshalHeader(payload)
		if err != nil {
			return fmt.Errorf("cluster: undecodable WAL entry: %w", err)
		}
		if !n.shouldShip(r, loc, peer) {
			return nil
		}
		// scanEntries allocates each payload fresh; retaining it is safe.
		pending = append(pending, payload)
		pendingBytes += len(payload)
		if len(pending) >= maxShipBatch || pendingBytes >= maxShipBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return sent, err
	}
	return sent, flush()
}

// sendBlobs ships pre-marshaled record blobs in bounded batches.
func (n *Node) sendBlobs(c *transport.Client, r *Ring, blobs [][]byte, through uint64) (int64, error) {
	var sent int64
	for len(blobs) > 0 {
		cut, bytes := 0, 0
		for cut < len(blobs) && cut < maxShipBatch && bytes < maxShipBytes {
			bytes += len(blobs[cut])
			cut++
		}
		s, err := n.sendBatch(c, r, blobs[:cut], through)
		sent += s
		if err != nil {
			return sent, err
		}
		blobs = blobs[cut:]
	}
	return sent, nil
}

// sendBatch frames and sends one replication batch and checks the ack.
func (n *Node) sendBatch(c *transport.Client, r *Ring, blobs [][]byte, through uint64) (int64, error) {
	batch, err := transport.EncodeRecordBlobs(blobs)
	if err != nil {
		return 0, err
	}
	payload, err := encodeReplBatch(replHeader{From: n.cfg.ID, Epoch: r.Epoch, Through: through}, batch)
	if err != nil {
		return 0, err
	}
	resp, err := c.Call(transport.MsgReplBatch, payload, transport.MsgReplAck)
	if err != nil {
		return 0, err
	}
	ack, err := decodeReplAck(resp)
	if err != nil {
		return 0, err
	}
	if !ack.OK {
		return int64(ack.Applied + ack.Dups), fmt.Errorf("cluster: peer rejected batch: %s", ack.Err)
	}
	return int64(len(blobs)), nil
}

// shouldShip decides whether this node ships loc's records to peer
// under ring r: the leader pushes down to the rest of the replica set;
// a non-leader holding the partition pushes up to the leader. A
// leaderless partition (down, unpromoted primary) ships nowhere until
// failover resolves it — its records stay safe in local WALs.
func (n *Node) shouldShip(r *Ring, loc vhash.LocationID, peer string) bool {
	leader, err := r.Leader(loc)
	if err != nil {
		return false
	}
	if leader.ID == n.cfg.ID {
		for _, m := range r.ReplicaSet(loc) {
			if m.ID == peer {
				return true
			}
		}
		return false
	}
	return peer == leader.ID
}

// waterLocked returns the peer's watermark entry, creating it if
// needed. Callers hold n.mu.
func (n *Node) waterLocked(id string) *peerState {
	ws := n.water[id]
	if ws == nil {
		ws = &peerState{}
		n.water[id] = ws
	}
	return ws
}

// prunePeers drops the watermarks of members that left the ring (the
// ring keeps Left tombstones, so lookups stay meaningful) and closes
// the connections of addresses no member still serves at.
func (n *Node) prunePeers(r *Ring) {
	n.mu.Lock()
	for id := range n.water {
		if m, ok := r.Member(id); !ok || m.State == StateLeft {
			delete(n.water, id)
		}
	}
	n.mu.Unlock()
	n.peers.Retain(r.HasAddr)
}
