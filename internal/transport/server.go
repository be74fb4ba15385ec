package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// Store is the record store a Server fronts. *central.Server is the
// in-memory implementation; *central.Durable adds a write-ahead log, so
// the upload Ack this server sends only goes out once Ingest has made
// the record as durable as the store promises.
type Store interface {
	// Ingest stores one uploaded record; the Ack is sent iff it
	// returns nil. The UploadBatch handler marks every record of a
	// batch but the last (record.MarkMore) and ingests them in order: a
	// store may defer a marked record's durability to the last record's
	// Ingest, which must then vouch for the whole batch.
	Ingest(*record.Record) error
	// Volume estimates one period's traffic volume (Eq. 1).
	Volume(vhash.LocationID, record.PeriodID) (float64, error)
	// PointPersistent estimates point persistent traffic (Eq. 12).
	PointPersistent(vhash.LocationID, []record.PeriodID) (*core.PointResult, error)
	// PointToPointPersistent estimates point-to-point persistent
	// traffic (Eq. 21).
	PointToPointPersistent(vhash.LocationID, vhash.LocationID, []record.PeriodID) (*core.PointToPointResult, error)
	// Locations lists locations with stored records.
	Locations() []vhash.LocationID
	// Periods lists the stored periods at one location.
	Periods(vhash.LocationID) []record.PeriodID
}

// Extension is an optional interface a Store may implement to handle
// protocol frames beyond the core upload/query set. The cluster node
// (internal/cluster) implements it for ring management, replication,
// and record-fetch frames, without this package importing those
// schemas. HandleFrame returns handled=false for frame types it does
// not recognize; the server then answers with the generic bad-frame
// failure. Implementations must be safe for concurrent use — the
// server calls HandleFrame from every connection's goroutine.
type Extension interface {
	HandleFrame(t MsgType, payload []byte) (respType MsgType, resp []byte, handled bool)
}

// Server exposes a record store over the wire protocol. One goroutine
// serves each accepted connection; connections are independent
// request/response streams.
type Server struct {
	store  Store
	logger *log.Logger

	mu     sync.Mutex
	ln     net.Listener          //ptm:guardedby mu
	conns  map[net.Conn]struct{} //ptm:guardedby mu
	closed bool                  //ptm:guardedby mu
	// wg is not guarded: Close waits on it after releasing mu, since the
	// draining handlers take mu to leave conns.
	wg sync.WaitGroup
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("transport: server closed")

// NewServer wraps a record store (typically *central.Server or the
// WAL-backed *central.Durable). logger may be nil to discard protocol
// warnings.
func NewServer(store Store, logger *log.Logger) (*Server, error) {
	if store == nil {
		return nil, errors.New("transport: nil store")
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{store: store, logger: logger, conns: make(map[net.Conn]struct{})}, nil
}

// Serve accepts connections on ln until Close is called. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//ptmlint:allow errdrop -- losing a just-accepted conn during shutdown is not actionable
			_ = conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ServeConn handles a single pre-established connection (used with
// net.Pipe in tests and by in-process deployments). It blocks until the
// peer closes.
func (s *Server) ServeConn(conn net.Conn) {
	s.serveConn(conn)
}

// Close stops accepting, closes active connections, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		//ptmlint:allow errdrop -- best-effort teardown; the per-conn goroutine reports read errors
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		//ptmlint:allow errdrop -- double-close on the shutdown path is expected and harmless
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		t, payload, err := ReadFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				s.logger.Printf("transport: read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		respType, resp := s.dispatch(t, payload)
		if err := WriteFrame(bw, respType, resp); err != nil {
			s.logger.Printf("transport: write to %v: %v", conn.RemoteAddr(), err)
			return
		}
		if err := bw.Flush(); err != nil {
			s.logger.Printf("transport: flush to %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

func (s *Server) dispatch(t MsgType, payload []byte) (MsgType, []byte) {
	fail := func(rt MsgType, err error) (MsgType, []byte) {
		return rt, result{ok: false, errMsg: err.Error()}.encode()
	}
	failList := func(rt MsgType, err error) (MsgType, []byte) {
		return rt, append([]byte{0}, err.Error()...)
	}
	switch t {
	case MsgUpload:
		rec, err := record.Unmarshal(payload)
		if err != nil {
			return fail(MsgUploadAck, err)
		}
		if err := s.store.Ingest(rec); err != nil {
			return fail(MsgUploadAck, err)
		}
		return MsgUploadAck, result{ok: true}.encode()
	case MsgUploadBatch:
		recs, err := DecodeRecordBatch(payload)
		if err != nil {
			return MsgUploadBatchAck, batchResult{ok: false, errMsg: err.Error()}.encode()
		}
		// Apply every record even when some fail: one duplicate must not
		// discard the rest of an RSU's backlog. Every record but the last
		// is marked, so a durable store commits the batch with one sync
		// in the last record's Ingest.
		for _, rec := range recs[:len(recs)-1] {
			rec.MarkMore()
		}
		// The ack names the first refused record, and a duplicate only
		// when every failure was one: a client reads a duplicate as
		// "already stored" and drops the whole batch.
		var accepted uint32
		var firstErr, firstDup error
		for i, rec := range recs {
			if err := s.store.Ingest(rec); err != nil {
				err = fmt.Errorf("record %d/%d: %w", i, len(recs), err)
				dup := IsDuplicate(err)
				if i == len(recs)-1 && !dup {
					// The closing record failed: no record of the batch
					// is known to be durable.
					return MsgUploadBatchAck, batchResult{errMsg: err.Error()}.encode()
				}
				switch {
				case dup && firstDup == nil:
					firstDup = err
				case !dup && firstErr == nil:
					firstErr = err
				}
				continue
			}
			accepted++
		}
		if firstErr == nil {
			firstErr = firstDup
		}
		if firstErr != nil {
			return MsgUploadBatchAck, batchResult{accepted: accepted, errMsg: firstErr.Error()}.encode()
		}
		return MsgUploadBatchAck, batchResult{ok: true, accepted: accepted}.encode()
	case MsgQueryVolume:
		q, err := decodeVolumeQuery(payload)
		if err != nil {
			return fail(MsgResult, err)
		}
		v, err := s.store.Volume(q.Loc, q.Period)
		if err != nil {
			return fail(MsgResult, err)
		}
		return MsgResult, result{ok: true, estimate: v}.encode()
	case MsgQueryPoint:
		q, err := decodePointQuery(payload)
		if err != nil {
			return fail(MsgResult, err)
		}
		res, err := s.store.PointPersistent(q.Loc, q.Periods)
		if err != nil {
			return fail(MsgResult, err)
		}
		return MsgResult, result{ok: true, estimate: res.Estimate}.encode()
	case MsgQueryP2P:
		q, err := decodeP2PQuery(payload)
		if err != nil {
			return fail(MsgResult, err)
		}
		res, err := s.store.PointToPointPersistent(q.LocA, q.LocB, q.Periods)
		if err != nil {
			return fail(MsgResult, err)
		}
		return MsgResult, result{ok: true, estimate: res.Estimate}.encode()
	case MsgListLocations:
		if len(payload) != 0 {
			return failList(MsgLocations, fmt.Errorf("%w: unexpected payload", ErrBadFrame))
		}
		return MsgLocations, encodeLocationList(s.store.Locations())
	case MsgListPeriods:
		if len(payload) != 8 {
			return failList(MsgPeriods, fmt.Errorf("%w: list-periods payload", ErrBadFrame))
		}
		loc := vhash.LocationID(binary.LittleEndian.Uint64(payload))
		return MsgPeriods, encodePeriodList(s.store.Periods(loc))
	default:
		if ext, ok := s.store.(Extension); ok {
			if respType, resp, handled := ext.HandleFrame(t, payload); handled {
				return respType, resp
			}
		}
		return fail(MsgResult, fmt.Errorf("%w: unexpected message %v", ErrBadFrame, t))
	}
}
