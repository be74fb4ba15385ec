package transport

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// maxPipeline bounds the number of requests in flight on one connection;
// senders beyond it queue on the pending channel, which is ordinary
// backpressure.
const maxPipeline = 128

// Client errors.
var (
	// ErrClientClosed is returned for requests issued (or still in
	// flight) after Close.
	ErrClientClosed = errors.New("transport: client closed")
	// ErrRedialed fails requests that were in flight on a connection
	// Redial replaced; the request may or may not have reached the
	// server, exactly like any other transport failure.
	ErrRedialed = errors.New("transport: connection replaced by redial")
	// ErrNotRedialable is returned by Redial on a client wrapping a
	// pre-established connection (NewClient) — there is no address to
	// dial again.
	ErrNotRedialable = errors.New("transport: client has no dial address")
)

// session is one connection's worth of client state: the conn, its
// FIFO pending queue, the response reader's lifecycle, and the sticky
// transport failure. A Client replaces its session wholesale on Redial;
// the old session's waiters all fail with the sticky error, and nothing
// from the old connection can leak into the new one.
type session struct {
	conn    net.Conn          // set at construction, never reassigned
	pending chan *pendingCall // FIFO queue of in-flight calls
	quit    chan struct{}     // closed once by shutdown

	errMu     sync.Mutex
	brokenErr error //ptm:guardedby errMu (sticky transport failure)

	closeOnce sync.Once
}

// Client is an RSU- or operator-side connection to the central server.
// It is safe for concurrent use; requests are pipelined on the wire: each
// call writes its frame under a short send lock and then waits for its
// response, so many goroutines stream requests back-to-back over one
// connection instead of convoying on a whole request/response exchange.
// The server answers strictly in request order, so a background reader
// matches responses to waiters FIFO. A transport failure (as opposed to
// an application-level RemoteError) poisons the connection: every pending
// and subsequent call fails — until Redial replaces the connection,
// which the cluster router uses to recover a follower link without
// constructing a new client.
// Lock order: sendMu before the session's errMu — the send path marks
// the connection broken while still serializing writers; errMu is
// innermost and never held while acquiring sendMu.
type Client struct {
	// Dial target, retained for Redial. Empty for NewClient-wrapped
	// connections, which cannot redial.
	addr    string
	tlsCfg  *tls.Config
	timeout time.Duration

	sendMu sync.Mutex           // serializes frame writes, pending pushes, and session swaps
	sess   *session             //ptm:guardedby sendMu (current connection)
	bw     *bufio.Writer        //ptm:guardedby sendMu (wraps sess.conn)
	hdr    [frameHeaderLen]byte //ptm:guardedby sendMu (reused frame-header scratch)
	closed bool                 //ptm:guardedby sendMu
}

// pendingCall is one in-flight request awaiting its FIFO response.
type pendingCall struct {
	done chan callResult // buffered(1); the reader never blocks on it
}

type callResult struct {
	t       MsgType
	payload []byte
	err     error
}

// RemoteError is an application-level failure reported by the server
// (duplicate upload, unknown location, saturated record, ...).
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "transport: server: " + e.Msg }

// Dial connects to a central server. The returned client remembers addr
// and can Redial after a transport failure.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.addr, c.timeout = addr, timeout
	return c, nil
}

// DialTLS connects to a central server over TLS. cfg typically comes from
// the authority's ClientTLSConfig (internal/pki).
func DialTLS(addr string, cfg *tls.Config, timeout time.Duration) (*Client, error) {
	d := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(d, "tcp", addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s with TLS: %w", addr, err)
	}
	c := NewClient(conn)
	c.addr, c.tlsCfg, c.timeout = addr, cfg, timeout
	return c, nil
}

// NewClient wraps an established connection (net.Pipe in tests) and
// starts the response reader. Clients built this way cannot Redial.
//
//ptm:exclusive constructor: the Client is not shared until NewClient returns
func NewClient(conn net.Conn) *Client {
	return &Client{sess: newSession(conn), bw: bufio.NewWriter(conn)}
}

// newSession starts a session and its response reader over conn.
//
//ptm:exclusive constructor: the session is not shared until newSession returns
func newSession(conn net.Conn) *session {
	s := &session{
		conn:    conn,
		pending: make(chan *pendingCall, maxPipeline),
		quit:    make(chan struct{}),
	}
	//ptmlint:allow goroutinehygiene -- readLoop exits when shutdown closes s.quit and drains pending
	go s.readLoop(bufio.NewReader(conn))
	return s
}

// shutdown poisons the session with reason, stops the reader, and closes
// the connection. Idempotent; only the first call's close error is
// returned.
func (s *session) shutdown(reason error) error {
	var err error
	s.closeOnce.Do(func() {
		//ptmlint:allow errdrop -- setBroken returns the (possibly earlier) sticky error; shutdown keeps its own reason
		_ = s.setBroken(reason)
		close(s.quit)
		err = s.conn.Close()
	})
	return err
}

// Close closes the underlying connection and releases every waiter.
func (c *Client) Close() error {
	c.sendMu.Lock()
	c.closed = true
	sess := c.sess
	c.sendMu.Unlock()
	return sess.shutdown(ErrClientClosed)
}

// Redial replaces a broken connection with a freshly dialed one. Calls
// in flight on the old connection fail with ErrRedialed; calls issued
// after Redial returns use the new connection with a clean slate. It is
// the cluster router's recovery path after a node restart or failover —
// the Client (and its place in connection caches) survives, only the
// socket is replaced. Redial on a healthy client is allowed and simply
// reconnects.
func (c *Client) Redial() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if c.addr == "" {
		return ErrNotRedialable
	}
	var conn net.Conn
	var err error
	if c.tlsCfg != nil {
		d := &net.Dialer{Timeout: c.timeout}
		conn, err = tls.DialWithDialer(d, "tcp", c.addr, c.tlsCfg)
	} else {
		conn, err = net.DialTimeout("tcp", c.addr, c.timeout)
	}
	if err != nil {
		// The old session stays as-is (likely already broken); the
		// caller may retry Redial with its own backoff.
		return fmt.Errorf("transport: redialing %s: %w", c.addr, err)
	}
	//ptmlint:allow errdrop -- the old connection is being abandoned; its close error is not actionable
	_ = c.sess.shutdown(ErrRedialed)
	c.sess = newSession(conn)
	c.bw = bufio.NewWriter(conn)
	return nil
}

// broken returns the sticky transport failure, if any.
func (s *session) broken() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.brokenErr
}

// setBroken records the first transport failure; later calls keep it.
func (s *session) setBroken(err error) error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.brokenErr == nil {
		s.brokenErr = err
	}
	return s.brokenErr
}

// readLoop matches response frames to pending calls in FIFO order. After
// a read failure it stays alive in a draining mode — every queued and
// future call fails fast with the sticky error — until shutdown.
func (s *session) readLoop(br *bufio.Reader) {
	for {
		var call *pendingCall
		select {
		case call = <-s.pending:
		case <-s.quit:
			s.drainPending()
			return
		}
		if err := s.broken(); err != nil {
			call.done <- callResult{err: err}
			continue
		}
		t, payload, err := ReadFrame(br)
		if err != nil {
			err = s.setBroken(fmt.Errorf("transport: reading response: %w", err))
			call.done <- callResult{err: err}
			continue
		}
		call.done <- callResult{t: t, payload: payload}
	}
}

// drainPending fails everything still queued at shutdown. Calls enqueued
// concurrently with the drain are released by their own quit select in
// exchange.
func (s *session) drainPending() {
	err := s.setBroken(ErrClientClosed)
	for {
		select {
		case call := <-s.pending:
			call.done <- callResult{err: err}
		default:
			return
		}
	}
}

// writeFrameLocked writes one frame to the buffered writer. It must be
// called with sendMu held: the header is encoded into the Client's
// reusable scratch field rather than a local, because bufio.Writer.Write
// retains its argument past the call (a local array would be moved to
// the heap) and the pipelined send path must not allocate per request.
//
//ptm:noalloc
func (c *Client) writeFrameLocked(t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	putFrameHeader(&c.hdr, t, len(payload))
	if _, err := c.bw.Write(c.hdr[:]); err != nil {
		return fmt.Errorf("transport: writing frame header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := c.bw.Write(payload); err != nil {
			return fmt.Errorf("transport: writing frame payload: %w", err)
		}
	}
	return nil
}

// exchange writes one frame and waits for its FIFO-matched response,
// expecting wantType.
func (c *Client) exchange(t MsgType, payload []byte, wantType MsgType) ([]byte, error) {
	call := &pendingCall{done: make(chan callResult, 1)}
	c.sendMu.Lock()
	if c.closed {
		c.sendMu.Unlock()
		return nil, ErrClientClosed
	}
	sess := c.sess
	if err := sess.broken(); err != nil {
		c.sendMu.Unlock()
		return nil, err
	}
	if err := c.writeFrameLocked(t, payload); err != nil {
		// A partial write desyncs the stream; poison the connection.
		err = sess.setBroken(err)
		c.sendMu.Unlock()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		err = sess.setBroken(fmt.Errorf("transport: flushing request: %w", err))
		c.sendMu.Unlock()
		return nil, err
	}
	// Enqueue under the send lock so queue order matches wire order. The
	// reader always drains pending (even in broken mode), so this cannot
	// block indefinitely while the session is live.
	select {
	case sess.pending <- call:
	case <-sess.quit:
		c.sendMu.Unlock()
		return nil, sess.broken()
	}
	c.sendMu.Unlock()

	select {
	case res := <-call.done:
		if res.err != nil {
			return nil, res.err
		}
		if res.t != wantType {
			return nil, fmt.Errorf("%w: response type %v, want %v", ErrBadFrame, res.t, wantType)
		}
		return res.payload, nil
	case <-sess.quit:
		return nil, sess.broken()
	}
}

// Call sends one raw frame and waits for its FIFO-matched response,
// checking the response type. It is the escape hatch for protocol
// extensions — the cluster subsystem's replication and admin RPCs ride
// on it without this package importing cluster message schemas.
func (c *Client) Call(t MsgType, payload []byte, wantType MsgType) ([]byte, error) {
	return c.exchange(t, payload, wantType)
}

// roundTrip sends one frame and reads the response, expecting wantType
// and a result payload.
func (c *Client) roundTrip(t MsgType, payload []byte, wantType MsgType) (result, error) {
	resp, err := c.exchange(t, payload, wantType)
	if err != nil {
		return result{}, err
	}
	res, err := decodeResult(resp)
	if err != nil {
		return result{}, err
	}
	if !res.ok {
		return result{}, &RemoteError{Msg: res.errMsg}
	}
	return res, nil
}

// Upload sends one traffic record and waits for the acknowledgment.
//
//ptm:sink transport upload
func (c *Client) Upload(rec *record.Record) error {
	blob, err := rec.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(MsgUpload, blob, MsgUploadAck)
	return err
}

// UploadBatch sends a batch of records in one frame — one round trip for
// the whole batch instead of one per record — and returns how many the
// server accepted. The server applies every record even when some fail;
// per-record failures (e.g. one duplicate) surface as a *RemoteError
// naming the first, with accepted still counting the rest. When the
// last record fails with anything but a duplicate, the error names it
// and accepted is 0: the last record commits the batch, so none of it
// is known to be durable.
//
//ptm:sink transport upload
func (c *Client) UploadBatch(recs []*record.Record) (accepted int, err error) {
	payload, err := encodeUploadBatch(recs)
	if err != nil {
		return 0, err
	}
	resp, err := c.exchange(MsgUploadBatch, payload, MsgUploadBatchAck)
	if err != nil {
		return 0, err
	}
	res, err := decodeBatchResult(resp)
	if err != nil {
		return 0, err
	}
	if !res.ok {
		return int(res.accepted), &RemoteError{Msg: res.errMsg}
	}
	return int(res.accepted), nil
}

// QueryVolume returns the Eq. (1) volume estimate for one period.
func (c *Client) QueryVolume(loc vhash.LocationID, p record.PeriodID) (float64, error) {
	res, err := c.roundTrip(MsgQueryVolume, VolumeQuery{Loc: loc, Period: p}.encode(), MsgResult)
	if err != nil {
		return 0, err
	}
	return res.estimate, nil
}

// QueryPointPersistent returns the Eq. (12) point persistent estimate.
func (c *Client) QueryPointPersistent(loc vhash.LocationID, periods []record.PeriodID) (float64, error) {
	payload, err := PointQuery{Loc: loc, Periods: periods}.encode()
	if err != nil {
		return 0, err
	}
	res, err := c.roundTrip(MsgQueryPoint, payload, MsgResult)
	if err != nil {
		return 0, err
	}
	return res.estimate, nil
}

// QueryPointToPointPersistent returns the Eq. (21) estimate between two
// locations.
func (c *Client) QueryPointToPointPersistent(locA, locB vhash.LocationID, periods []record.PeriodID) (float64, error) {
	payload, err := P2PQuery{LocA: locA, LocB: locB, Periods: periods}.encode()
	if err != nil {
		return 0, err
	}
	res, err := c.roundTrip(MsgQueryP2P, payload, MsgResult)
	if err != nil {
		return 0, err
	}
	return res.estimate, nil
}

// listRoundTrip sends a listing request and returns the raw response
// payload after checking the response type.
func (c *Client) listRoundTrip(t MsgType, payload []byte, wantType MsgType) ([]byte, error) {
	return c.exchange(t, payload, wantType)
}

// ListLocations returns all locations with stored records.
func (c *Client) ListLocations() ([]vhash.LocationID, error) {
	resp, err := c.listRoundTrip(MsgListLocations, nil, MsgLocations)
	if err != nil {
		return nil, err
	}
	return decodeLocationList(resp)
}

// ListPeriods returns the stored periods at one location.
func (c *Client) ListPeriods(loc vhash.LocationID) ([]record.PeriodID, error) {
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, uint64(loc))
	resp, err := c.listRoundTrip(MsgListPeriods, payload, MsgPeriods)
	if err != nil {
		return nil, err
	}
	return decodePeriodList(resp)
}

// IsRemote reports whether err is an application-level server error, as
// opposed to a transport failure worth retrying on a new connection.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// duplicateText is the tail of the store's duplicate sentinel
// (store.ErrDuplicate), the one part of it that survives a RemoteError.
const duplicateText = "already stored"

// IsDuplicate reports whether err, local or carried back as a
// RemoteError (inside an UploadBatch's "record i/n:" wrapper too),
// names the store's duplicate rejection: the record is already stored,
// so the upload counts as delivered. Any other RemoteError — a server
// whose log failed, say — means the records are not known to be stored.
func IsDuplicate(err error) bool {
	return err != nil && strings.Contains(err.Error(), duplicateText)
}
