// Command centrald runs the central server of Section II-A: it listens for
// RSU record uploads and persistent-traffic queries over the TCP protocol.
//
//	centrald -listen :7700 -s 3 [-http :7780] [-load snap.seg] [-save snap.seg]
//
// With -save, the store is written to disk on SIGINT/SIGTERM before
// exit, as one store segment (the format of WAL checkpoints and of the
// tiered store's cold files); with -load, such a segment is restored at
// startup. -http exposes the read-only admin surface (/healthz, /stats,
// /locations, /query/...).
//
// With -wal DIR the store is backed by a write-ahead log: every record
// is on disk (per -sync) before its upload is acknowledged, the store
// recovers from the newest checkpoint plus log replay at startup, and a
// graceful shutdown flushes and checkpoints so the next boot replays
// nothing. -checkpoint-every bounds replay length between compactions.
// -wal and -load/-save are mutually exclusive — the WAL's own
// checkpoints are the snapshots.
//
// The record store itself is selected with -store:
//
//	-store mem     everything resident (the default)
//	-store tiered  hot records in RAM, sealed periods frozen to
//	               immutable segments under -cold DIR once the hot
//	               payload exceeds -resident-budget
//	-store mmap    read-only query head over an existing -cold DIR
//
// Cold reads go through a bounded block cache; PTM_BLOCKCACHE_BYTES
// overrides its default capacity (256MiB). -resident-budget and the
// env var accept plain bytes or K/M/G/T suffixes (binary, e.g. 64M).
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptm/internal/central"
	"ptm/internal/cluster"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

func main() {
	cfg := parseFlags(os.Args[1:])
	logger := log.New(os.Stderr, "centrald: ", log.LstdFlags)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if err := serve(cfg, logger, sigc); err != nil {
		fmt.Fprintln(os.Stderr, "centrald:", err)
		os.Exit(1)
	}
}

type config struct {
	listen    string
	httpAddr  string
	s         int
	load      string
	save      string
	walDir    string
	sync      string
	ckptEvery int
	storeKind string // mem|tiered|mmap; "" means mem
	coldDir   string
	budget    string // resident-budget byte size; "" means unlimited
	// clusterNode, when non-empty, runs this process as the named member
	// of a cluster (requires -wal); shipInterval paces replication.
	clusterNode  string
	shipInterval time.Duration
	// ready and httpReady, if non-nil, receive the bound addresses once
	// serving — used by tests to synchronize.
	ready     chan<- string
	httpReady chan<- string
}

func parseFlags(args []string) config {
	fs := flag.NewFlagSet("centrald", flag.ExitOnError)
	var cfg config
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7700", "TCP listen address")
	fs.StringVar(&cfg.httpAddr, "http", "", "optional HTTP admin address (e.g. 127.0.0.1:7780)")
	fs.IntVar(&cfg.s, "s", 3, "system-wide representative-bit count")
	fs.StringVar(&cfg.load, "load", "", "segment file (a -save file or WAL checkpoint) to restore at startup")
	fs.StringVar(&cfg.save, "save", "", "segment file to write the whole store to on shutdown")
	fs.StringVar(&cfg.walDir, "wal", "", "write-ahead-log directory (empty: in-memory store)")
	fs.StringVar(&cfg.sync, "sync", "always", "WAL sync policy: always, interval, never")
	fs.IntVar(&cfg.ckptEvery, "checkpoint-every", 1024, "checkpoint the WAL every N ingested records (0: only at shutdown)")
	fs.StringVar(&cfg.storeKind, "store", "mem", "record store: mem, tiered, or mmap")
	fs.StringVar(&cfg.coldDir, "cold", "", "segment directory for -store=tiered/mmap")
	fs.StringVar(&cfg.budget, "resident-budget", "", "hot-tier payload bound for -store=tiered, e.g. 64M (empty: unlimited)")
	fs.StringVar(&cfg.clusterNode, "cluster-node", "", "cluster member ID: serve as this node of a cluster (requires -wal; ring arrives via ptmcluster)")
	fs.DurationVar(&cfg.shipInterval, "ship-interval", 500*time.Millisecond, "replication shipper period for -cluster-node")
	//ptmlint:allow errdrop -- flag.ExitOnError exits the process on a parse failure
	_ = fs.Parse(args)
	return cfg
}

// parseByteSize parses a byte count: a plain integer, optionally with a
// binary suffix K, M, G, or T (KiB/MiB/GiB/TiB are accepted too).
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	shift := 0
	for suf, sh := range map[string]int{"K": 10, "M": 20, "G": 30, "T": 40} {
		for _, full := range []string{suf + "iB", suf + "B", suf} {
			if strings.HasSuffix(t, full) {
				t, shift = strings.TrimSuffix(t, full), sh
				break
			}
		}
		if shift != 0 {
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n << shift, nil
}

// cacheBytesFromEnv reads PTM_BLOCKCACHE_BYTES; 0 means "use the
// store's default".
func cacheBytesFromEnv() (int64, error) {
	v := os.Getenv("PTM_BLOCKCACHE_BYTES")
	if v == "" {
		return 0, nil
	}
	n, err := parseByteSize(v)
	if err != nil {
		return 0, fmt.Errorf("PTM_BLOCKCACHE_BYTES: %w", err)
	}
	return n, nil
}

// buildServer constructs the central server over the store selected by
// -store/-cold/-resident-budget. readOnly reports an mmap head.
func buildServer(cfg config, logger *log.Logger) (srv *central.Server, readOnly bool, err error) {
	kind := cfg.storeKind
	if kind == "" {
		kind = "mem"
	}
	cacheBytes, err := cacheBytesFromEnv()
	if err != nil {
		return nil, false, err
	}
	var budget int64
	if cfg.budget != "" {
		if budget, err = parseByteSize(cfg.budget); err != nil {
			return nil, false, fmt.Errorf("-resident-budget: %w", err)
		}
	}
	switch kind {
	case "mem":
		if cfg.coldDir != "" || cfg.budget != "" {
			return nil, false, errors.New("-cold/-resident-budget require -store=tiered or -store=mmap")
		}
		srv, err = central.NewServer(cfg.s)
		return srv, false, err
	case "tiered":
		if cfg.coldDir == "" {
			return nil, false, errors.New("-store=tiered requires -cold DIR")
		}
		ts, err := store.OpenTiered(cfg.coldDir, store.TieredOptions{
			ResidentBudget: budget,
			CacheBytes:     cacheBytes,
		})
		if err != nil {
			return nil, false, err
		}
		srv, err = central.NewServerWithStore(cfg.s, ts)
		if err != nil {
			//ptmlint:allow errdrop -- the construction error is what the caller sees
			_ = ts.Close()
			return nil, false, err
		}
		st := ts.Stats()
		logger.Printf("tiered store in %s: %d cold records across %d segments (budget %s)",
			cfg.coldDir, st.ColdRecords, st.Segments, orUnlimited(cfg.budget))
		return srv, false, nil
	case "mmap":
		if cfg.coldDir == "" {
			return nil, false, errors.New("-store=mmap requires -cold DIR")
		}
		if cfg.budget != "" {
			return nil, false, errors.New("-resident-budget is meaningless for the read-only -store=mmap")
		}
		ms, err := store.OpenMmap(cfg.coldDir, cacheBytes)
		if err != nil {
			return nil, false, err
		}
		srv, err = central.NewServerWithStore(cfg.s, ms)
		if err != nil {
			//ptmlint:allow errdrop -- the construction error is what the caller sees
			_ = ms.Close()
			return nil, false, err
		}
		st := ms.Stats()
		logger.Printf("read-only mmap store over %s: %d records in %d segments",
			cfg.coldDir, st.Records, st.Segments)
		return srv, true, nil
	default:
		return nil, false, fmt.Errorf("unknown -store %q (want mem, tiered, or mmap)", kind)
	}
}

func orUnlimited(s string) string {
	if s == "" {
		return "unlimited"
	}
	return s
}

// serve runs the daemon until a signal arrives on sigc or the listener
// fails.
func serve(cfg config, logger *log.Logger, sigc <-chan os.Signal) error {
	head, readOnly, err := buildServer(cfg, logger)
	if err != nil {
		return err
	}
	defer func() {
		if err := head.CloseStore(); err != nil {
			logger.Printf("closing store: %v", err)
		}
	}()
	var (
		durable *central.Durable
		tstore  transport.Store = head
	)
	if cfg.walDir != "" {
		if cfg.load != "" || cfg.save != "" {
			return errors.New("-wal is exclusive with -load/-save: checkpoints are the snapshots")
		}
		if readOnly {
			return errors.New("-wal is meaningless for the read-only -store=mmap")
		}
		policy, err := wal.ParseSyncPolicy(cfg.sync)
		if err != nil {
			return err
		}
		durable, err = central.OpenDurableServer(cfg.walDir, head, wal.Options{Sync: policy}, cfg.ckptEvery)
		if err != nil {
			return err
		}
		tstore = durable
		st := durable.LogStats()
		logger.Printf("recovered %d locations from %s (replayed %d log entries, truncated %d torn bytes)",
			len(head.Locations()), cfg.walDir, st.Entries, st.TruncatedBytes)
	} else if cfg.load != "" {
		if err := head.LoadFrom(cfg.load); err != nil {
			return fmt.Errorf("restoring snapshot: %w", err)
		}
		logger.Printf("restored %d locations from %s", len(head.Locations()), cfg.load)
	}

	var node *cluster.Node
	if cfg.clusterNode != "" {
		if durable == nil {
			return errors.New("-cluster-node requires -wal: replication ships WAL segments")
		}
		node, err = cluster.NewNode(durable, cluster.Config{
			ID:           cfg.clusterNode,
			RingPath:     filepath.Join(cfg.walDir, "ring.json"),
			ShipInterval: cfg.shipInterval,
			Logger:       logger,
		})
		if err != nil {
			return err
		}
		tstore = node
		if r := node.Ring(); r != nil {
			logger.Printf("cluster node %s: ring epoch %d, %d members, R=%d",
				cfg.clusterNode, r.Epoch, len(r.Members), r.Replicas)
		} else {
			logger.Printf("cluster node %s: no ring yet (push one with ptmcluster)", cfg.clusterNode)
		}
	}

	srv, err := transport.NewServer(tstore, logger)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	logger.Printf("serving on %s (s=%d)", ln.Addr(), cfg.s)

	if cfg.httpAddr != "" {
		httpLn, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("http listen: %w", err)
		}
		handler := head.Handler()
		if node != nil {
			// The cluster surface rides alongside the store admin pages:
			// /cluster serves the node status (ring epoch, per-peer
			// replication lag, applied watermarks), and the same snapshot
			// is published through expvar at /debug/vars. expvar.Publish
			// lives here in main — never in the cluster package — because
			// the process-global registry panics on duplicate names, which
			// in-process multi-node tests would trip.
			expvar.Publish("ptm_cluster", expvar.Func(func() any { return node.StatusSnapshot() }))
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				if err := enc.Encode(node.StatusSnapshot()); err != nil {
					logger.Printf("encoding /cluster: %v", err)
				}
			})
			mux.Handle("GET /debug/vars", expvar.Handler())
			handler = mux
		}
		httpSrv := &http.Server{Handler: handler}
		//ptmlint:allow goroutinehygiene -- lifecycle is bounded by the deferred httpSrv.Close below
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("http: %v", err)
			}
		}()
		defer func() {
			if err := httpSrv.Close(); err != nil {
				logger.Printf("closing http: %v", err)
			}
		}()
		logger.Printf("admin HTTP on %s", httpLn.Addr())
		if cfg.httpReady != nil {
			cfg.httpReady <- httpLn.Addr().String()
		}
	}
	if cfg.ready != nil {
		cfg.ready <- ln.Addr().String()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		logger.Printf("received %v, shutting down", sig)
		if err := srv.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
	case err := <-done:
		if err != nil && !errors.Is(err, transport.ErrServerClosed) {
			return err
		}
	}

	if node != nil {
		// Stop the shipper before the WAL shuts down under it.
		if err := node.Close(); err != nil {
			logger.Printf("closing cluster node: %v", err)
		}
	}
	if durable != nil {
		// Graceful shutdown: flush whatever the sync policy left
		// buffered, then checkpoint so the next boot loads one snapshot
		// instead of replaying the whole log. A crash before either
		// step still recovers — that is the WAL's job — this only makes
		// the clean path fast.
		if err := durable.Sync(); err != nil {
			return fmt.Errorf("flushing wal: %w", err)
		}
		if err := durable.Checkpoint(); err != nil {
			return fmt.Errorf("checkpointing: %w", err)
		}
		if err := durable.Close(); err != nil {
			return fmt.Errorf("closing wal: %w", err)
		}
		logger.Printf("wal flushed and checkpointed in %s", cfg.walDir)
	}
	if cfg.save != "" {
		if err := wal.WriteFileAtomic(cfg.save, head.SaveTo); err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
		logger.Printf("snapshot written to %s", cfg.save)
	}
	return nil
}
