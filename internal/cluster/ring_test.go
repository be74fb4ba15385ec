package cluster

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ptm/internal/vhash"
)

// testRing builds an all-Up ring of n members n01..n0n.
func testRing(n, replicas, vnodes int) *Ring {
	r := &Ring{Epoch: 1, Replicas: replicas, VNodes: vnodes}
	for i := 1; i <= n; i++ {
		r.Members = append(r.Members, Member{
			ID:    fmt.Sprintf("n%02d", i),
			Addr:  fmt.Sprintf("10.0.0.%d:9000", i),
			State: StateUp,
		})
	}
	return r
}

func setIDs(set []Member) string {
	ids := make([]string, len(set))
	for i, m := range set {
		ids[i] = m.ID
	}
	return strings.Join(ids, ",")
}

// TestRingAssignmentsGolden pins the partition map: the replica set and
// leader of 24 locations for clusters of 1, 3, and 5 members. The map
// is a frozen function of (member IDs, vnode index, location) — any
// change to the hashing, the walk, or the tie-break shows up as a
// fixture diff and is a breaking change for every deployed cluster
// (every node must agree on the map, and a silent change would reshuffle
// partitions under live data). Regenerate deliberately with
// PTM_UPDATE_GOLDEN=1 go test ./internal/cluster -run Golden.
func TestRingAssignmentsGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range []struct{ n, r int }{{1, 1}, {3, 2}, {5, 3}} {
		ring := testRing(cfg.n, cfg.r, DefaultVNodes)
		for loc := vhash.LocationID(1); loc <= 24; loc++ {
			set := ring.ReplicaSet(loc)
			leader, err := ring.Leader(loc)
			if err != nil {
				t.Fatalf("N=%d loc=%d: %v", cfg.n, loc, err)
			}
			fmt.Fprintf(&b, "N=%d R=%d loc=%d set=%s leader=%s\n",
				cfg.n, cfg.r, loc, setIDs(set), leader.ID)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "ring_assignments.golden")
	if os.Getenv("PTM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (PTM_UPDATE_GOLDEN=1 to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("ring assignments diverged from golden fixture.\nThis reshuffles every deployed cluster's partitions; if intended, regenerate with PTM_UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRingRebalanceMovementBound pins the consistent-hashing contract:
// a single join or leave moves only the keys adjacent to the changed
// member's vnodes — about 1/N of them — and every moved key moves
// to/from the changed member, never between two unchanged members.
func TestRingRebalanceMovementBound(t *testing.T) {
	const nLocs = 8192
	const n = 5
	base := testRing(n, 1, DefaultVNodes)

	owner := func(r *Ring, loc vhash.LocationID) string {
		set := r.ReplicaSet(loc)
		if len(set) == 0 {
			t.Fatalf("loc %d has no owner", loc)
		}
		return set[0].ID
	}
	before := make([]string, nLocs)
	for i := range before {
		before[i] = owner(base, vhash.LocationID(i))
	}

	t.Run("join", func(t *testing.T) {
		joined := base.Clone()
		joined.Epoch++
		joined.Members = append(joined.Members, Member{ID: "n06", Addr: "10.0.0.6:9000", State: StateUp})
		moved := 0
		for i := range before {
			after := owner(joined, vhash.LocationID(i))
			if after == before[i] {
				continue
			}
			moved++
			if after != "n06" {
				t.Fatalf("loc %d moved %s->%s: a join may only move keys to the joined member", i, before[i], after)
			}
		}
		// Expectation nLocs/(n+1); allow generous slack for vnode
		// placement variance at 64 vnodes/member.
		bound := nLocs * 16 / ((n + 1) * 10) // 1.6/(n+1)
		if moved == 0 || moved > bound {
			t.Fatalf("join moved %d/%d keys, want (0, %d]", moved, nLocs, bound)
		}
		t.Logf("join moved %d/%d keys (ideal %d)", moved, nLocs, nLocs/(n+1))
	})

	t.Run("leave", func(t *testing.T) {
		left := base.Clone()
		left.Epoch++
		left.Members[n-1].State = StateLeft
		left.Members[n-1].Addr = ""
		gone := base.Members[n-1].ID
		moved := 0
		for i := range before {
			after := owner(left, vhash.LocationID(i))
			if after == before[i] {
				continue
			}
			moved++
			if before[i] != gone {
				t.Fatalf("loc %d moved %s->%s: a leave may only move the departed member's keys", i, before[i], after)
			}
		}
		bound := nLocs * 16 / (n * 10) // 1.6/n
		if moved == 0 || moved > bound {
			t.Fatalf("leave moved %d/%d keys, want (0, %d]", moved, nLocs, bound)
		}
		t.Logf("leave moved %d/%d keys (ideal %d)", moved, nLocs, nLocs/n)
	})
}

func TestRingLeaderLifecycle(t *testing.T) {
	r := testRing(3, 2, DefaultVNodes)
	loc := vhash.LocationID(7)
	set := r.ReplicaSet(loc)
	if len(set) != 2 {
		t.Fatalf("replica set size = %d, want 2", len(set))
	}
	primary, second := set[0], set[1]

	lead, err := r.Leader(loc)
	if err != nil || lead.ID != primary.ID {
		t.Fatalf("Leader = %v, %v; want primary %s", lead.ID, err, primary.ID)
	}

	// A joining primary is skipped: the next Up replica leads.
	mark := func(r *Ring, id string, s State) {
		for i := range r.Members {
			if r.Members[i].ID == id {
				r.Members[i].State = s
			}
		}
	}
	joining := r.Clone()
	mark(joining, primary.ID, StateJoining)
	if lead, err = joining.Leader(loc); err != nil || lead.ID != second.ID {
		t.Fatalf("joining primary: leader = %v, %v; want %s", lead.ID, err, second.ID)
	}

	// A down, unpromoted primary blocks the partition.
	down := r.Clone()
	mark(down, primary.ID, StateDown)
	if _, err := down.Leader(loc); err == nil {
		t.Fatal("down unpromoted primary: want ErrNoLeader")
	} else {
		var nl *ErrNoLeader
		if !asErrNoLeader(err, &nl) || nl.Down != primary.ID {
			t.Fatalf("down unpromoted primary: err = %v, want ErrNoLeader{%s}", err, primary.ID)
		}
	}

	// Promotion authorizes the standby (in the set) to lead.
	promoted := down.Clone()
	promoted.Promoted = map[string]string{primary.ID: second.ID}
	if err := promoted.Validate(); err != nil {
		t.Fatalf("promoted ring invalid: %v", err)
	}
	if lead, err = promoted.Leader(loc); err != nil || lead.ID != second.ID {
		t.Fatalf("promoted: leader = %v, %v; want standby %s", lead.ID, err, second.ID)
	}

	// A draining member owns nothing: it appears in no replica set.
	drain := r.Clone()
	mark(drain, primary.ID, StateDraining)
	for i := 0; i < 64; i++ {
		for _, m := range drain.ReplicaSet(vhash.LocationID(i)) {
			if m.ID == primary.ID {
				t.Fatalf("draining member %s still owns loc %d", primary.ID, i)
			}
		}
	}
}

func asErrNoLeader(err error, out **ErrNoLeader) bool {
	nl, ok := err.(*ErrNoLeader)
	if ok {
		*out = nl
	}
	return ok
}

func TestRingValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Ring)
	}{
		{"no replicas", func(r *Ring) { r.Replicas = 0 }},
		{"no vnodes", func(r *Ring) { r.VNodes = 0 }},
		{"no members", func(r *Ring) { r.Members = nil }},
		{"empty ID", func(r *Ring) { r.Members[0].ID = "" }},
		{"dup ID", func(r *Ring) { r.Members[1].ID = r.Members[0].ID }},
		{"no addr", func(r *Ring) { r.Members[0].Addr = "" }},
		{"all left", func(r *Ring) {
			for i := range r.Members {
				r.Members[i].State = StateLeft
				r.Members[i].Addr = ""
			}
		}},
		{"promoted unknown", func(r *Ring) { r.Promoted = map[string]string{"nope": "n01"} }},
		{"promoted not down", func(r *Ring) { r.Promoted = map[string]string{"n01": "n02"} }},
		{"standby not up", func(r *Ring) {
			r.Members[0].State = StateDown
			r.Members[1].State = StateDown
			r.Promoted = map[string]string{"n01": "n02"}
		}},
	}
	for _, tc := range cases {
		r := testRing(3, 2, 8)
		tc.mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
	if err := testRing(3, 2, 8).Validate(); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
}

func TestRingJSONRoundTrip(t *testing.T) {
	r := testRing(3, 2, 16)
	r.Members[1].State = StateDown
	r.Members[2].State = StateJoining
	// A promoted standby must be Up and the down member Down; use n01.
	r.Promoted = map[string]string{"n02": "n01"}
	b, err := EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"up"`, `"down"`, `"joining"`} {
		if !strings.Contains(string(b), name) {
			t.Fatalf("encoded ring missing state name %s:\n%s", name, b)
		}
	}
	got, err := DecodeRing(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != r.Epoch || got.Replicas != r.Replicas || got.VNodes != r.VNodes ||
		len(got.Members) != len(r.Members) || got.Promoted["n02"] != "n01" {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	for i := range r.Members {
		if got.Members[i] != r.Members[i] {
			t.Fatalf("member %d: %+v vs %+v", i, got.Members[i], r.Members[i])
		}
	}
	if _, err := DecodeRing([]byte(`{"epoch":1}`)); err == nil {
		t.Fatal("DecodeRing accepted an invalid ring")
	}
}

// refLookup is the partition map computed the direct way, per lookup:
// sort every owning vnode position, walk clockwise from the location's
// point to the first Replicas distinct members, then resolve the leader
// over that set. The ring's table must agree with it everywhere.
type refLookup struct {
	r   *Ring
	pts []ringPoint
}

func newRefLookup(r *Ring) refLookup {
	var pts []ringPoint
	for mi, m := range r.Members {
		if !ownsPositions(m.State) {
			continue
		}
		for v := 0; v < r.VNodes; v++ {
			pts = append(pts, ringPoint{point: pointFor(m.ID, v), member: mi})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].point != pts[j].point {
			return pts[i].point < pts[j].point
		}
		return r.Members[pts[i].member].ID < r.Members[pts[j].member].ID
	})
	return refLookup{r: r, pts: pts}
}

func (f refLookup) replicaSet(loc vhash.LocationID) []Member {
	if len(f.pts) == 0 {
		return nil
	}
	h := locPoint(loc)
	start := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].point >= h })
	var out []Member
	for i := 0; i < len(f.pts) && len(out) < f.r.Replicas; i++ {
		m := f.r.Members[f.pts[(start+i)%len(f.pts)].member]
		if !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}

func (f refLookup) leader(loc vhash.LocationID, set []Member) (Member, error) {
	for _, m := range set {
		switch m.State {
		case StateUp:
			return m, nil
		case StateDown:
			standby, promoted := f.r.Promoted[m.ID]
			if !promoted {
				return Member{}, &ErrNoLeader{Loc: loc, Down: m.ID}
			}
			for _, s := range set {
				if s.ID == standby && s.State == StateUp {
					return s, nil
				}
			}
		}
	}
	return Member{}, fmt.Errorf("cluster: location %d has no eligible leader among %d replicas", loc, len(set))
}

// ringMix is one assignment of member states, optionally with a
// failover entry promoting the first Up member for the first Down one.
type ringMix struct {
	states   []State
	promoted bool
}

// stateMixes returns distinct deterministic state mixes for an n-member
// ring: all up, one member in each other state (a down one with and
// without failover), and seeded random mixes.
func stateMixes(n int) []ringMix {
	var mixes []ringMix
	seen := make(map[string]bool)
	add := func(m ringMix) {
		if k := fmt.Sprint(m); !seen[k] {
			seen[k] = true
			mixes = append(mixes, m)
		}
	}
	for _, s := range []State{StateUp, StateJoining, StateDown, StateDraining, StateLeft} {
		one := make([]State, n)
		for i := range one {
			one[i] = StateUp
		}
		one[0] = s
		add(ringMix{states: one})
		if s == StateDown {
			add(ringMix{states: one, promoted: true})
		}
	}
	rng := rand.New(rand.NewPCG(uint64(n), 46))
	for k := 0; k < 6; k++ {
		st := make([]State, n)
		for i := range st {
			st[i] = State(rng.IntN(int(StateLeft) + 1))
		}
		add(ringMix{states: st, promoted: k%2 == 0})
	}
	return mixes
}

// TestRingTableMatchesWalk checks the partition table against the
// direct per-lookup walk: for every member-state mix, replica count and
// location, ReplicaSet, Leader and the error text must agree. The mixes
// must reach every leader outcome: an Up primary, a promoted standby, a
// leaderless partition and one with no eligible member.
func TestRingTableMatchesWalk(t *testing.T) {
	const nLocs = 10000
	outcomes := make(map[string]int)
	for _, n := range []int{1, 3, 5} {
		for _, replicas := range []int{1, 2, 3} {
			for mi, mix := range stateMixes(n) {
				r := testRing(n, replicas, DefaultVNodes)
				down, up := "", ""
				for i, s := range mix.states {
					r.Members[i].State = s
					switch {
					case s == StateDown && down == "":
						down = r.Members[i].ID
					case s == StateUp && up == "":
						up = r.Members[i].ID
					}
				}
				if mix.promoted && down != "" && up != "" {
					r.Promoted = map[string]string{down: up}
				}
				ref := newRefLookup(r)
				for loc := vhash.LocationID(1); loc <= nLocs; loc++ {
					set := ref.replicaSet(loc)
					if got := r.ReplicaSet(loc); !slices.Equal(got, set) {
						t.Fatalf("N=%d R=%d mix %d %v promoted=%v loc=%d: ReplicaSet %s, walk %s",
							n, replicas, mi, mix.states, r.Promoted, loc, setIDs(got), setIDs(set))
					}
					got, gotErr := r.Leader(loc)
					want, wantErr := ref.leader(loc, set)
					if got != want || (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("N=%d R=%d mix %d %v promoted=%v loc=%d: Leader %v, %v; walk %v, %v",
							n, replicas, mi, mix.states, r.Promoted, loc, got.ID, gotErr, want.ID, wantErr)
					}
					switch {
					case wantErr != nil && strings.HasPrefix(wantErr.Error(), NoLeaderPrefix):
						outcomes["leaderless"]++
					case wantErr != nil:
						outcomes["no eligible"]++
					case len(set) > 0 && set[0].State == StateDown:
						outcomes["promoted"]++
					default:
						outcomes["up"]++
					}
				}
			}
		}
	}
	for _, o := range []string{"up", "promoted", "leaderless", "no eligible"} {
		if outcomes[o] == 0 {
			t.Errorf("no location reached outcome %q; the mixes do not cover it", o)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// TestRingCloneGetsFreshTable pins the mutate-a-clone rule: a clone
// changed after its source served lookups gets its own partition map,
// and the source keeps the one it had.
func TestRingCloneGetsFreshTable(t *testing.T) {
	const loc = vhash.LocationID(7)
	r := testRing(3, 2, DefaultVNodes)
	before, err := r.Leader(loc)
	if err != nil {
		t.Fatal(err)
	}
	beforeSet := setIDs(r.ReplicaSet(loc))

	c := r.Clone()
	for i := range c.Members {
		if c.Members[i].ID == before.ID {
			c.Members[i].State = StateDraining
		}
	}
	c.Epoch++
	after, err := c.Leader(loc)
	if err != nil {
		t.Fatal(err)
	}
	if after.ID == before.ID {
		t.Fatalf("clone with %s draining still leads loc %d from it", before.ID, loc)
	}
	if got, want := setIDs(c.ReplicaSet(loc)), setIDs(newRefLookup(c).replicaSet(loc)); got != want {
		t.Fatalf("clone ReplicaSet = %s, walk %s", got, want)
	}
	if still, err := r.Leader(loc); err != nil || still != before {
		t.Fatalf("source ring after clone: Leader = %v, %v; want %v", still, err, before)
	}
	if got := setIDs(r.ReplicaSet(loc)); got != beforeSet {
		t.Fatalf("source ring after clone: ReplicaSet = %s, want %s", got, beforeSet)
	}
}

// TestRingFirstLookupsRace makes the first lookups on one fresh ring
// from several goroutines at once; under -race it checks that building
// and publishing the table is safe.
func TestRingFirstLookupsRace(t *testing.T) {
	const workers, nLocs = 8, 512
	r := testRing(5, 3, DefaultVNodes)
	ref := newRefLookup(r)
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < nLocs; i++ {
				loc := vhash.LocationID(w*nLocs + i)
				lead, err := r.Leader(loc)
				set := ref.replicaSet(loc)
				want, _ := ref.leader(loc, set)
				if err != nil || lead != want || setIDs(r.ReplicaSet(loc)) != setIDs(set) {
					errs <- fmt.Errorf("worker %d loc %d: Leader %v, %v; walk %v", w, loc, lead.ID, err, want.ID)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkRingLeader times one leader lookup on a 3-member, R=2 ring,
// over a sweep of locations.
func BenchmarkRingLeader(b *testing.B) {
	r := testRing(3, 2, DefaultVNodes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Leader(vhash.LocationID(i)); err != nil {
			b.Fatal(err)
		}
	}
}
