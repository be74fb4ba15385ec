// Package router implements the cluster-aware client: the same call
// surface as a single transport.Client, routed across a cluster.
//
// Uploads go to the leader of the record's location partition, grouped
// per leader and retried through ring refreshes: a not-leader
// rejection, a leaderless partition (failover in progress), or a dead
// connection requeues the records instead of failing the batch, so a
// paced ingest stream survives a node kill and the subsequent
// `ptmcluster failover` without losing records.
//
// Queries scatter to the partition's replicas, leader first. Point and
// volume estimates are served by whichever replica answers — replicas
// converge to identical store contents, so the answers are
// bit-identical. Point-to-point estimates are partition-local when one
// node leads both locations; otherwise the router fetches both
// locations' records for the queried periods and runs the paper's
// Eq. 21 estimator client-side — the same core.EstimatePointToPoint the
// server runs, over the same record sets, producing the same bits.
package router

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ptm/internal/cluster"
	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

const (
	// maxUploadAttempts bounds the requeue loop; with the capped backoff
	// below it rides out several seconds of failover window.
	maxUploadAttempts = 12
	// backoffStep/backoffCap shape the deterministic retry backoff.
	backoffStep = 150 * time.Millisecond
	backoffCap  = time.Second
)

// Router is a cluster-aware client. Safe for concurrent use.
type Router struct {
	seeds []string
	peers *transport.Peers // member and seed connections, by address

	// mu guards the ring view; it is never held across a network call.
	mu   sync.Mutex
	ring *cluster.Ring //ptm:guardedby mu
	s    int           //ptm:guardedby mu (bitmap parameter, from node status)
}

// Dial bootstraps a router from seed addresses: the first reachable
// seed supplies the ring, and any Up member supplies the cluster's
// bitmap parameter s (needed for client-side point-to-point joins).
//
//ptm:exclusive Dial
func Dial(seeds []string, timeout time.Duration) (*Router, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("router: no seed addresses")
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	r := &Router{seeds: seeds, peers: transport.NewPeers(timeout)}
	err := r.Refresh()
	if err == nil {
		err = r.fetchS()
	}
	if err != nil {
		//ptmlint:allow errdrop -- the bootstrap error is what the caller sees; close is best-effort cleanup
		_ = r.Close()
		return nil, err
	}
	return r, nil
}

// Ring returns a copy of the router's current ring view.
func (r *Router) Ring() *cluster.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring == nil {
		return nil
	}
	return r.ring.Clone()
}

// S returns the cluster's bitmap parameter.
func (r *Router) S() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s
}

// Close releases every member connection.
func (r *Router) Close() error {
	return r.peers.Close()
}

// Refresh re-fetches the ring: every serving member of the current
// view first (the seed may be the node that just died), then the
// seeds. A fetched ring is adopted only if it is newer than the view in
// hand, so a stale source cannot roll the router backwards.
func (r *Router) Refresh() error {
	var addrs []string
	if ring := r.ringSnapshot(); ring != nil {
		for _, m := range ring.Members {
			if m.Addr == "" || m.State == cluster.StateLeft || m.State == cluster.StateDown {
				continue
			}
			addrs = append(addrs, m.Addr)
		}
	}
	var firstErr error
	for _, addr := range append(addrs, r.seeds...) {
		var fetched *cluster.Ring
		err := r.peers.Call(addr, func(c *transport.Client) error {
			var cerr error
			fetched, cerr = fetchRing(c)
			return cerr
		})
		if err == nil {
			r.adopt(fetched)
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("router: no reachable ring source: %w", firstErr)
}

func fetchRing(c *transport.Client) (*cluster.Ring, error) {
	resp, err := c.Call(transport.MsgRingGet, nil, transport.MsgRing)
	if err != nil {
		return nil, err
	}
	body, err := cluster.DecodeResponse(resp)
	if err != nil {
		return nil, err
	}
	return cluster.DecodeRing(body)
}

// adopt installs a fetched ring if newer, closing the connections of
// addresses no member still serves at (members that left or moved).
func (r *Router) adopt(ring *cluster.Ring) {
	r.mu.Lock()
	if r.ring != nil && ring.Epoch <= r.ring.Epoch {
		r.mu.Unlock()
		return
	}
	r.ring = ring
	r.mu.Unlock()
	r.peers.Retain(ring.HasAddr)
}

// fetchS learns the bitmap parameter from any Up member's status.
func (r *Router) fetchS() error {
	ring := r.ringSnapshot()
	var firstErr error
	for _, m := range ring.Members {
		if m.State != cluster.StateUp {
			continue
		}
		var st cluster.Status
		err := r.peers.Call(m.Addr, func(c *transport.Client) error {
			resp, err := c.Call(transport.MsgStatus, nil, transport.MsgStatusResp)
			if err != nil {
				return err
			}
			body, err := cluster.DecodeResponse(resp)
			if err != nil {
				return err
			}
			st, err = cluster.DecodeStatus(body)
			return err
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st.S <= 0 {
			return fmt.Errorf("router: member %s reports s=%d", m.ID, st.S)
		}
		r.mu.Lock()
		r.s = st.S
		r.mu.Unlock()
		return nil
	}
	return fmt.Errorf("router: no member answered a status probe: %w", firstErr)
}

func (r *Router) ringSnapshot() *cluster.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// Upload sends one record to its partition leader.
func (r *Router) Upload(rec *record.Record) error {
	n, err := r.UploadBatch([]*record.Record{rec})
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("router: upload acked %d records, want 1", n)
	}
	return nil
}

// UploadBatch routes records to their partition leaders and returns how
// many are durably stored cluster-side. Records whose partition is
// momentarily unroutable (leader change, failover in progress, dead
// connection) are requeued across ring refreshes with a deterministic
// capped backoff. A record the cluster already holds counts as acked —
// retries after a partial failure legitimately re-send records the
// first attempt stored, and immutable deduplicated records make the
// duplicate ack equivalent to the original.
func (r *Router) UploadBatch(recs []*record.Record) (int, error) {
	accepted := 0
	remaining := recs
	var lastErr error
	for attempt := 0; attempt < maxUploadAttempts && len(remaining) > 0; attempt++ {
		if attempt > 0 {
			backoff := time.Duration(attempt) * backoffStep
			if backoff > backoffCap {
				backoff = backoffCap
			}
			time.Sleep(backoff)
			if err := r.Refresh(); err != nil {
				lastErr = err
				continue
			}
		}
		ring := r.ringSnapshot()
		groups := make(map[cluster.Member][]*record.Record)
		var retry []*record.Record
		for _, rec := range remaining {
			lead, err := ring.Leader(rec.Location)
			if err != nil {
				// Leaderless partition: hold the records for the
				// failover to complete.
				retry = append(retry, rec)
				lastErr = err
				continue
			}
			groups[lead] = append(groups[lead], rec)
		}
		for lead, group := range groups {
			var n int
			err := r.peers.Call(lead.Addr, func(c *transport.Client) error {
				var cerr error
				n, cerr = c.UploadBatch(group)
				return cerr
			})
			switch {
			case err == nil:
				accepted += n
			case cluster.IsNotLeader(err), cluster.IsLeaderless(err):
				retry = append(retry, group...)
				lastErr = err
			case transport.IsDuplicate(err):
				// Everything in the group is already stored (or was
				// stored by the partial attempt this retry repeats).
				accepted += len(group)
			case transport.IsRemote(err):
				return accepted, fmt.Errorf("router: upload to %s: %w", lead.ID, err)
			default:
				retry = append(retry, group...)
				lastErr = err
			}
		}
		remaining = retry
	}
	if len(remaining) > 0 {
		return accepted, fmt.Errorf("router: %d records unacked after %d attempts: %w",
			len(remaining), maxUploadAttempts, lastErr)
	}
	return accepted, nil
}

// queryCandidates orders the replicas to ask for loc: leader first,
// then the other Up members of the replica set.
func (r *Router) queryCandidates(ring *cluster.Ring, loc vhash.LocationID) ([]cluster.Member, error) {
	set := ring.ReplicaSet(loc)
	var cands []cluster.Member
	if lead, err := ring.Leader(loc); err == nil {
		cands = append(cands, lead)
	}
	for _, m := range set {
		if m.State != cluster.StateUp {
			continue
		}
		dup := false
		for _, c := range cands {
			if c.ID == m.ID {
				dup = true
			}
		}
		if !dup {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("router: location %d has no queryable replica", loc)
	}
	return cands, nil
}

// queryReplicas tries fn on each candidate replica in order. A remote
// (application-level) answer is definitive — replicas converge, so a
// not-found from a live replica is a real not-found; transport failures
// fall through to the next replica.
func (r *Router) queryReplicas(loc vhash.LocationID, fn func(*transport.Client) error) error {
	ring := r.ringSnapshot()
	cands, err := r.queryCandidates(ring, loc)
	if err != nil {
		return err
	}
	var firstErr error
	for _, m := range cands {
		err := r.peers.Call(m.Addr, fn)
		if err == nil || transport.IsRemote(err) {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("router: no replica of location %d reachable: %w", loc, firstErr)
}

// QueryVolume estimates one period's volume (Eq. 1).
func (r *Router) QueryVolume(loc vhash.LocationID, p record.PeriodID) (float64, error) {
	var v float64
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		var cerr error
		v, cerr = c.QueryVolume(loc, p)
		return cerr
	})
	return v, err
}

// QueryPointPersistent estimates point persistent traffic (Eq. 12).
func (r *Router) QueryPointPersistent(loc vhash.LocationID, periods []record.PeriodID) (float64, error) {
	var v float64
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		var cerr error
		v, cerr = c.QueryPointPersistent(loc, periods)
		return cerr
	})
	return v, err
}

// QueryPointToPointPersistent estimates point-to-point persistent
// traffic (Eq. 21). When one node leads both locations the join runs
// server-side; otherwise the router fetches both partitions' records
// for the queried periods and runs the estimator locally — same inputs,
// same code path, same bits as the single-node server (proven by
// TestRouterP2PBitIdentity).
func (r *Router) QueryPointToPointPersistent(locA, locB vhash.LocationID, periods []record.PeriodID) (float64, error) {
	ring := r.ringSnapshot()
	leadA, errA := ring.Leader(locA)
	leadB, errB := ring.Leader(locB)
	if errA == nil && errB == nil && leadA.ID == leadB.ID {
		var v float64
		err := r.peers.Call(leadA.Addr, func(c *transport.Client) error {
			var cerr error
			v, cerr = c.QueryPointToPointPersistent(locA, locB, periods)
			return cerr
		})
		if err == nil || transport.IsRemote(err) {
			return v, err
		}
		// Transport failure: fall through to the fetch path, which can
		// use any replica.
	}
	setA, err := r.fetchSet(locA, periods)
	if err != nil {
		return 0, err
	}
	setB, err := r.fetchSet(locB, periods)
	if err != nil {
		return 0, err
	}
	res, err := core.EstimatePointToPoint(setA, setB, r.S())
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// fetchSet pulls loc's records at exactly the requested periods from a
// replica and builds their record set. The replica answers in request
// order and fails a missing period, mirroring the server's Collect; an
// answer that holds anything else is refused.
func (r *Router) fetchSet(loc vhash.LocationID, periods []record.PeriodID) (*record.Set, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("router: no periods requested for location %d", loc)
	}
	var recs []*record.Record
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		resp, err := c.Call(transport.MsgFetchRecords, cluster.EncodeFetch(loc, periods), transport.MsgRecords)
		if err != nil {
			return err
		}
		body, err := cluster.DecodeResponse(resp)
		if err != nil {
			return err
		}
		recs, err = transport.DecodeRecordBatch(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(recs) != len(periods) {
		return nil, fmt.Errorf("router: location %d fetch answered %d records for %d periods", loc, len(recs), len(periods))
	}
	for i, rec := range recs {
		if rec.Location != loc || rec.Period != periods[i] {
			return nil, fmt.Errorf("router: location %d fetch answered loc=%d period=%d for period %d",
				loc, rec.Location, rec.Period, periods[i])
		}
	}
	return record.NewSet(recs)
}

// ListLocations unions the locations of every Up member.
func (r *Router) ListLocations() ([]vhash.LocationID, error) {
	ring := r.ringSnapshot()
	seen := make(map[vhash.LocationID]bool)
	asked := 0
	for _, m := range ring.Members {
		if m.State != cluster.StateUp {
			continue
		}
		var locs []vhash.LocationID
		err := r.peers.Call(m.Addr, func(c *transport.Client) error {
			var cerr error
			locs, cerr = c.ListLocations()
			return cerr
		})
		if err != nil {
			return nil, fmt.Errorf("router: listing locations on %s: %w", m.ID, err)
		}
		asked++
		for _, loc := range locs {
			seen[loc] = true
		}
	}
	if asked == 0 {
		return nil, fmt.Errorf("router: no Up member to list locations from")
	}
	out := make([]vhash.LocationID, 0, len(seen))
	for loc := range seen {
		out = append(out, loc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ListPeriods lists the stored periods at one location.
func (r *Router) ListPeriods(loc vhash.LocationID) ([]record.PeriodID, error) {
	var periods []record.PeriodID
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		var cerr error
		periods, cerr = c.ListPeriods(loc)
		return cerr
	})
	return periods, err
}
