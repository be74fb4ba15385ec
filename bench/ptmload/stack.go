package main

// The single-node central stack the upload-durable and query-mix
// workloads drive: store.Tiered under central.Server under
// central.Durable (SyncAlways, automatic checkpoints off) behind a
// transport.Server on TCP loopback — the layers a centrald process
// assembles, in one process so the decorators can sit on the seams.

import (
	"errors"
	"io/fs"
	"net"
	"path/filepath"
	"time"

	"ptm/internal/central"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

const dialTimeout = 5 * time.Second

type stackOptions struct {
	residentBudget int64
	blockCache     int64
	// tr is nil for an untraced stack, which then holds no decorator at
	// all.
	tr *tracer
}

type centralStack struct {
	dir     string
	opts    stackOptions
	tiered  *store.Tiered
	durable *central.Durable
	seam    *tracedTransportStore // nil when untraced
	server  *listener
}

func (cs *centralStack) walDir() string { return filepath.Join(cs.dir, "wal") }
func (cs *centralStack) segDir() string { return filepath.Join(cs.dir, "seg") }

// openCentralStack opens (or recovers) the stack rooted at dir.
func openCentralStack(dir string, opts stackOptions) (*centralStack, error) {
	cs := &centralStack{dir: dir, opts: opts}
	tiered, err := store.OpenTiered(cs.segDir(), store.TieredOptions{
		ResidentBudget: opts.residentBudget,
		CacheBytes:     opts.blockCache,
	})
	if err != nil {
		return nil, err
	}
	var st store.Store = tiered
	if opts.tr != nil {
		st = &tracedStore{Store: tiered, cache: tiered, tr: opts.tr}
	}
	srv, err := central.NewServerWithStore(representativeBits, st)
	if err != nil {
		return nil, errors.Join(err, tiered.Close())
	}
	durable, err := central.OpenDurableServer(cs.walDir(), srv, wal.Options{Sync: wal.SyncAlways}, 0)
	if err != nil {
		return nil, errors.Join(err, tiered.Close())
	}
	var ts transport.Store = durable
	if opts.tr != nil {
		cs.seam = traceTransportStore(durable, "central", opts.tr)
		ts = cs.seam
	}
	ln, err := listen(ts)
	if err != nil {
		return nil, errors.Join(err, durable.Close(), tiered.Close())
	}
	cs.tiered, cs.durable, cs.server = tiered, durable, ln
	return cs, nil
}

func (cs *centralStack) addr() string { return cs.server.addr }

// close stops serving and releases the log and the store; the files stay
// for a later openCentralStack on the same dir.
func (cs *centralStack) close() error {
	return errors.Join(cs.server.close(), cs.durable.Close(), cs.tiered.Close())
}

// listener is a transport.Server on a loopback port with its Serve
// goroutine.
type listener struct {
	srv  *transport.Server
	addr string
	done chan error
}

func listen(st transport.Store) (*listener, error) {
	srv, err := transport.NewServer(st, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for Serve to return.
func (l *listener) close() error {
	err := l.srv.Close()
	if serr := <-l.done; serr != nil && !errors.Is(serr, transport.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
