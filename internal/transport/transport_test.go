package transport

import (
	"bytes"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/synth"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, MsgUpload, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgUpload || string(got) != string(payload) {
		t.Errorf("round trip: %v %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgUploadAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgUploadAck || len(got) != 0 {
		t.Errorf("empty frame: %v %v", typ, got)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, MsgUpload, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("write err = %v", err)
	}
	// A corrupted stream claiming a giant length must be rejected before
	// allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgUpload)})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("read err = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgUpload, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, tc := range []struct {
		t    MsgType
		want string
	}{
		{MsgUpload, "UPLOAD"}, {MsgUploadAck, "UPLOAD_ACK"},
		{MsgQueryVolume, "QUERY_VOLUME"}, {MsgQueryPoint, "QUERY_POINT"},
		{MsgQueryP2P, "QUERY_P2P"}, {MsgResult, "RESULT"},
		{MsgType(99), "MsgType(99)"},
	} {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", tc.t, got, tc.want)
		}
	}
}

// TestMsgTypeNumbersPinned pins every message type's wire number. The
// numbers are the protocol: an RSU and a server built from different
// versions must agree on them, so a new type takes a new number and no
// existing one ever moves.
func TestMsgTypeNumbersPinned(t *testing.T) {
	pinned := []struct {
		t    MsgType
		name string
		num  uint8
	}{
		{MsgUpload, "UPLOAD", 1},
		{MsgUploadAck, "UPLOAD_ACK", 2},
		{MsgQueryVolume, "QUERY_VOLUME", 3},
		{MsgQueryPoint, "QUERY_POINT", 4},
		{MsgQueryP2P, "QUERY_P2P", 5},
		{MsgResult, "RESULT", 6},
		{MsgListLocations, "LIST_LOCATIONS", 7},
		{MsgLocations, "LOCATIONS", 8},
		{MsgListPeriods, "LIST_PERIODS", 9},
		{MsgPeriods, "PERIODS", 10},
		{MsgUploadBatch, "UPLOAD_BATCH", 11},
		{MsgUploadBatchAck, "UPLOAD_BATCH_ACK", 12},
		{MsgRingGet, "RING_GET", 13},
		{MsgRing, "RING", 14},
		{MsgRingSet, "RING_SET", 15},
		{MsgReplBatch, "REPL_BATCH", 16},
		{MsgReplAck, "REPL_ACK", 17},
		{MsgFetchRecords, "FETCH_RECORDS", 18},
		{MsgRecords, "RECORDS", 19},
		{MsgStatus, "STATUS", 20},
		{MsgStatusResp, "STATUS_RESP", 21},
	}
	named := 0
	for n := 0; n <= 255; n++ {
		if !strings.HasPrefix(MsgType(n).String(), "MsgType(") {
			named++
		}
	}
	if named != len(pinned) {
		t.Errorf("%d message types have names, %d are pinned: pin the new one here", named, len(pinned))
	}
	for _, p := range pinned {
		if uint8(p.t) != p.num || p.t.String() != p.name {
			t.Errorf("%s is %d on the wire (named %q), pinned at %d", p.name, uint8(p.t), p.t.String(), p.num)
		}
	}
}

func TestQueryCodecs(t *testing.T) {
	vq := VolumeQuery{Loc: 7, Period: 3}
	got, err := decodeVolumeQuery(vq.encode())
	if err != nil || got != vq {
		t.Errorf("volume: %+v, %v", got, err)
	}
	if _, err := decodeVolumeQuery([]byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short volume err = %v", err)
	}

	pq := PointQuery{Loc: 9, Periods: []record.PeriodID{1, 2, 5}}
	pqb, err := pq.encode()
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := decodePointQuery(pqb)
	if err != nil || gotP.Loc != 9 || len(gotP.Periods) != 3 || gotP.Periods[2] != 5 {
		t.Errorf("point: %+v, %v", gotP, err)
	}
	if _, err := decodePointQuery([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short point err = %v", err)
	}
	if _, err := decodePointQuery(append(pqb, 0xff)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes err = %v", err)
	}
	big := PointQuery{Loc: 1, Periods: make([]record.PeriodID, MaxQueryPeriods+1)}
	if _, err := big.encode(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized periods err = %v", err)
	}

	p2 := P2PQuery{LocA: 1, LocB: 2, Periods: []record.PeriodID{4}}
	p2b, err := p2.encode()
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := decodeP2PQuery(p2b)
	if err != nil || gotQ.LocA != 1 || gotQ.LocB != 2 || gotQ.Periods[0] != 4 {
		t.Errorf("p2p: %+v, %v", gotQ, err)
	}
	// Truncated period list.
	if _, err := decodeP2PQuery(p2b[:18]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated p2p err = %v", err)
	}
}

func TestResultCodec(t *testing.T) {
	for _, r := range []result{
		{ok: true, estimate: 123.456},
		{ok: false, errMsg: "no such record"},
		{ok: true, estimate: math.Inf(1)},
	} {
		got, err := decodeResult(r.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.ok != r.ok || got.errMsg != r.errMsg {
			t.Errorf("result round trip: %+v vs %+v", got, r)
		}
		if !math.IsInf(r.estimate, 0) && got.estimate != r.estimate {
			t.Errorf("estimate: %v vs %v", got.estimate, r.estimate)
		}
	}
	if _, err := decodeResult([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short result err = %v", err)
	}
}

// newTestStack starts a real TCP server backed by a populated store and
// returns a connected client.
func newTestStack(t *testing.T) (*central.Server, *Client) {
	t.Helper()
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	client, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return store, client
}

func TestUploadAndQueryOverTCP(t *testing.T) {
	_, client := newTestStack(t)

	g, err := synth.NewGenerator(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := g.Pair(synth.PairConfig{
		LocA: 1, LocB: 2,
		VolumesA: []int{4000, 4200, 4100, 4300, 4050},
		VolumesB: []int{8000, 8200, 8100, 8300, 8050},
		NCommon:  700,
	})
	if err != nil {
		t.Fatal(err)
	}
	upload := func(set *record.Set) {
		for i, b := range set.Bitmaps() {
			rec := &record.Record{Location: set.Location(), Period: set.Periods()[i], Bitmap: b}
			if err := client.Upload(rec); err != nil {
				t.Fatalf("upload: %v", err)
			}
		}
	}
	upload(pair.SetA)
	upload(pair.SetB)

	periods := []record.PeriodID{1, 2, 3, 4, 5}

	vol, err := client.QueryVolume(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(vol-4000) / 4000; re > 0.1 {
		t.Errorf("volume = %v", vol)
	}
	pp, err := client.QueryPointPersistent(1, periods)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(pp-700) / 700; re > 0.15 {
		t.Errorf("point persistent = %v", pp)
	}
	p2p, err := client.QueryPointToPointPersistent(1, 2, periods)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(p2p-700) / 700; re > 0.15 {
		t.Errorf("p2p persistent = %v", p2p)
	}
}

func TestRemoteErrors(t *testing.T) {
	_, client := newTestStack(t)

	// Query before any upload.
	_, err := client.QueryVolume(1, 1)
	if !IsRemote(err) {
		t.Errorf("missing record err = %v, want RemoteError", err)
	}
	if err != nil && !strings.Contains(err.Error(), "no record") {
		t.Errorf("err text = %v", err)
	}

	rec, err2 := record.New(1, 1, 64)
	if err2 != nil {
		t.Fatal(err2)
	}
	if err := client.Upload(rec); err != nil {
		t.Fatal(err)
	}
	// Duplicate upload is an application error, not a dead connection.
	err = client.Upload(rec)
	if !IsRemote(err) {
		t.Errorf("duplicate err = %v, want RemoteError", err)
	}
	// The connection is still usable afterwards.
	if _, err := client.QueryVolume(1, 1); err != nil {
		t.Errorf("connection unusable after remote error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, client := newTestStack(t)
	rec, err := record.New(5, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(rec); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, err := client.QueryVolume(5, 1); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServeConnOverPipe(t *testing.T) {
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := net.Pipe()
	go srv.ServeConn(serverSide)
	client := NewClient(clientSide)
	defer client.Close()

	rec, err := record.New(9, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	rec.Bitmap.Set(17)
	if err := client.Upload(rec); err != nil {
		t.Fatal(err)
	}
	if got := store.Periods(9); len(got) != 1 || got[0] != 4 {
		t.Errorf("store periods = %v", got)
	}
}

func TestServerRejectsUnknownMessage(t *testing.T) {
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := net.Pipe()
	go srv.ServeConn(serverSide)
	defer clientSide.Close()

	if err := WriteFrame(clientSide, MsgType(77), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgResult {
		t.Fatalf("response type = %v", typ)
	}
	res, err := decodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.ok || !strings.Contains(res.errMsg, "unexpected message") {
		t.Errorf("result = %+v", res)
	}
}

func TestServerRejectsCorruptUpload(t *testing.T) {
	_, client := newTestStack(t)
	// Force a malformed record through the raw round trip.
	_, err := client.roundTrip(MsgUpload, []byte("definitely not a record"), MsgUploadAck)
	if !IsRemote(err) {
		t.Errorf("corrupt upload err = %v, want RemoteError", err)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Double close is fine; Serve after close fails.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Close = %v", err)
	}
}

func TestNewServerNilStore(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Error("nil store accepted")
	}
}
