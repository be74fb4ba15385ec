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

// ErrClientClosed is returned for requests issued (or still in flight)
// after Close.
var ErrClientClosed = errors.New("transport: client closed")

// Client is an RSU- or operator-side connection to the central server.
// It is safe for concurrent use; requests are pipelined on the wire: each
// call writes its frame under a short send lock and then waits for its
// response, so many goroutines stream requests back-to-back over one
// connection instead of convoying on a whole request/response exchange.
// The server answers strictly in request order, so a background reader
// matches responses to waiters FIFO. A transport failure (as opposed to
// an application-level RemoteError) poisons the connection for good:
// every pending and subsequent call fails with the same sticky error.
// Recovery is a new connection; Peers dials it for callers that keep
// connections across failures.
// Lock order: sendMu before errMu — the send path marks the connection
// broken while still serializing writers; errMu is innermost and never
// held while acquiring sendMu.
type Client struct {
	conn    net.Conn          // set at construction, never reassigned
	pending chan *pendingCall // FIFO queue of in-flight calls
	quit    chan struct{}     // closed once by Close

	sendMu sync.Mutex           // serializes frame writes and pending pushes
	bw     *bufio.Writer        //ptm:guardedby sendMu (wraps conn)
	hdr    [frameHeaderLen]byte //ptm:guardedby sendMu (reused frame-header scratch)
	closed bool                 //ptm:guardedby sendMu

	errMu     sync.Mutex
	brokenErr error //ptm:guardedby errMu (sticky transport failure)

	closeOnce sync.Once
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

// Dial connects to a central server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// DialTLS connects to a central server over TLS. cfg typically comes from
// the authority's ClientTLSConfig (internal/pki).
func DialTLS(addr string, cfg *tls.Config, timeout time.Duration) (*Client, error) {
	d := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(d, "tcp", addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s with TLS: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (net.Pipe in tests) and
// starts the response reader.
//
//ptm:exclusive constructor: the Client is not shared until NewClient returns
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(chan *pendingCall, maxPipeline),
		quit:    make(chan struct{}),
		bw:      bufio.NewWriter(conn),
	}
	//ptmlint:allow goroutinehygiene -- readLoop exits when Close closes c.quit and drains pending
	go c.readLoop(bufio.NewReader(conn))
	return c
}

// Close closes the underlying connection and releases every waiter.
// Idempotent; only the first call's close error is returned.
func (c *Client) Close() error {
	c.sendMu.Lock()
	c.closed = true
	c.sendMu.Unlock()
	var err error
	c.closeOnce.Do(func() {
		//ptmlint:allow errdrop -- setBroken returns the (possibly earlier) sticky error; Close keeps its own reason
		_ = c.setBroken(ErrClientClosed)
		close(c.quit)
		err = c.conn.Close()
	})
	return err
}

// broken returns the sticky transport failure, if any.
func (c *Client) broken() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.brokenErr
}

// setBroken records the first transport failure; later calls keep it.
func (c *Client) setBroken(err error) error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.brokenErr == nil {
		c.brokenErr = err
	}
	return c.brokenErr
}

// readLoop matches response frames to pending calls in FIFO order. After
// a read failure it stays alive in a draining mode — every queued and
// future call fails fast with the sticky error — until Close.
func (c *Client) readLoop(br *bufio.Reader) {
	for {
		var call *pendingCall
		select {
		case call = <-c.pending:
		case <-c.quit:
			c.drainPending()
			return
		}
		if err := c.broken(); err != nil {
			call.done <- callResult{err: err}
			continue
		}
		t, payload, err := ReadFrame(br)
		if err != nil {
			err = c.setBroken(fmt.Errorf("transport: reading response: %w", err))
			call.done <- callResult{err: err}
			continue
		}
		call.done <- callResult{t: t, payload: payload}
	}
}

// drainPending fails everything still queued at Close. Calls enqueued
// concurrently with the drain are released by their own quit select in
// exchange.
func (c *Client) drainPending() {
	err := c.setBroken(ErrClientClosed)
	for {
		select {
		case call := <-c.pending:
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
	if err := c.broken(); err != nil {
		c.sendMu.Unlock()
		return nil, err
	}
	if err := c.writeFrameLocked(t, payload); err != nil {
		// A partial write desyncs the stream; poison the connection.
		err = c.setBroken(err)
		c.sendMu.Unlock()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		err = c.setBroken(fmt.Errorf("transport: flushing request: %w", err))
		c.sendMu.Unlock()
		return nil, err
	}
	// Enqueue under the send lock so queue order matches wire order. The
	// reader always drains pending (even in broken mode), so this cannot
	// block indefinitely while the client is open.
	select {
	case c.pending <- call:
	case <-c.quit:
		c.sendMu.Unlock()
		return nil, c.broken()
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
	case <-c.quit:
		return nil, c.broken()
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
// per-record failures surface as a *RemoteError naming the first record
// refused for anything but a duplicate, or the first duplicate when
// every failure was one, with accepted still counting the rest. So
// IsDuplicate on the error means no record of the batch was refused.
// When the last record fails with anything but a duplicate, the error
// names it and accepted is 0: the last record commits the batch, so none
// of it is known to be durable.
//
//ptm:sink transport upload
func (c *Client) UploadBatch(recs []*record.Record) (accepted int, err error) {
	payload, err := EncodeRecordBatch(recs)
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
