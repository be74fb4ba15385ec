package main

// upload-durable: two connections UploadBatch eight 4 KiB records at a
// time into central.Durable (SyncAlways) over store.Tiered until 90 k
// records — five and a half times the resident budget — are acked; then, timed
// on their own, three checkpoints and three close → reopen recoveries.
// Write path only: transport framing, the WAL append + fsync, store
// ingest and freeze. No join kernel runs.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

const (
	uploadM           = 1 << 15
	uploadFleet       = 1 << 11
	uploadBatchSize   = 8
	uploadLocations   = 64
	uploadConnections = 2
	uploadBudget      = 64 << 20
	uploadBlockCache  = 16 << 20
	// uploadRecordsPerSecond sizes the record list: 90 k records at
	// -seconds 20, which the disk acks at 3.2-4.6 k records/s today.
	uploadRecordsPerSecond = 4500
	checkpointRepeats      = 3
	recoverRepeats         = 3
)

// uploadInputs is everything the seed decides: the records and the order
// they are uploaded in.
type uploadInputs struct {
	grid    [][]*record.Record // [location][period]
	batches [][]*record.Record
	digest  digest
}

func (in *uploadInputs) records() int { return len(in.batches) * uploadBatchSize }

func (in *uploadInputs) userBytes() int64 { return int64(in.records()) * uploadM / 8 }

func genUpload(c *config) (*uploadInputs, error) {
	in := &uploadInputs{}
	r := newRNG(c.seed)
	fleet, err := identities(r.fork(), uploadFleet)
	if err != nil {
		return nil, err
	}
	periods := max(c.ops(uploadRecordsPerSecond)/uploadLocations, 12)
	if in.grid, err = recordGrid(r.fork(), fleet, uploadLocations, periods, uploadM, 1); err != nil {
		return nil, err
	}
	// Upload order: period by period, eight neighbouring locations per
	// batch, batches dealt to the connections in turn — the order a
	// deployment's periods close in, and the order freezes expect.
	for p := 0; p < periods; p++ {
		for l := 0; l < uploadLocations; l += uploadBatchSize {
			batch := make([]*record.Record, uploadBatchSize)
			for i := range batch {
				batch[i] = in.grid[l+i][p]
				in.digest.record(batch[i])
			}
			in.batches = append(in.batches, batch)
		}
	}
	return in, nil
}

type uploadEnv struct {
	*uploadInputs
	dir     string
	stack   *centralStack
	clients []*transport.Client
}

func (e *uploadEnv) close() error {
	var errs []error
	for _, cl := range e.clients {
		errs = append(errs, cl.Close())
	}
	if e.stack != nil {
		errs = append(errs, e.stack.close())
	}
	return errors.Join(append(errs, os.RemoveAll(e.dir))...)
}

// openUpload opens an empty stack in the directory name under the run's
// scratch and dials the two connections; tr, when not nil, puts the
// decorators on the stack's seams.
func openUpload(c *config, in *uploadInputs, name string, tr *tracer) (*uploadEnv, error) {
	e := &uploadEnv{uploadInputs: in, dir: filepath.Join(c.dir, name)}
	var err error
	e.stack, err = openCentralStack(e.dir, stackOptions{residentBudget: uploadBudget, blockCache: uploadBlockCache, tr: tr})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(e.dir))
	}
	for i := 0; i < uploadConnections; i++ {
		cl, err := transport.Dial(e.stack.addr(), dialTimeout)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

func buildUpload(c *config) (*uploadEnv, error) {
	in, err := genUpload(c)
	if err != nil {
		return nil, err
	}
	return openUpload(c, in, "upload", nil)
}

type uploadRun struct {
	acks    []float64 // ms per UploadBatch, both connections
	elapsed time.Duration
}

func (u *uploadRun) rate(records int) float64 { return float64(records) / u.elapsed.Seconds() }

// upload sends batches [lo, hi), connection k taking lo+k, lo+k+2, ..., and
// adds what it measured to run.
func (e *uploadEnv) upload(tr *tracer, lo, hi int, run *uploadRun) error {
	var wg sync.WaitGroup
	acks := make([][]float64, len(e.clients))
	errs := make([]error, len(e.clients))
	start := time.Now()
	for k, cl := range e.clients {
		wg.Add(1)
		go func(k int, cl *transport.Client) {
			defer wg.Done()
			for b := lo + k; b < hi; b += len(e.clients) {
				id := noSpan
				if tr != nil {
					id = tr.beginUpload("client.UploadBatch", int64(b), e.batches[b]...)
				}
				t0 := time.Now()
				n, err := cl.UploadBatch(e.batches[b])
				acks[k] = append(acks[k], ms(time.Since(t0)))
				if tr != nil {
					tr.end(id)
				}
				if err != nil || n != uploadBatchSize {
					errs[k] = fmt.Errorf("batch %d: %d of %d acked: %v", b, n, uploadBatchSize, err)
					return
				}
			}
		}(k, cl)
	}
	wg.Wait()
	run.elapsed += time.Since(start)
	for _, a := range acks {
		run.acks = append(run.acks, a...)
	}
	return errors.Join(errs...)
}

// checkpoints times checkpointRepeats Durable.Checkpoint calls on the full
// store.
func (e *uploadEnv) checkpoints() ([]float64, error) {
	var times []float64
	for i := 0; i < checkpointRepeats; i++ {
		start := time.Now()
		if err := e.stack.durable.Checkpoint(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// recoveries times recoverRepeats close → reopen cycles and checks after
// each that the recovered census is exactly the acked set.
func (e *uploadEnv) recoveries(rep *report) ([]float64, error) {
	for _, cl := range e.clients {
		if err := cl.Close(); err != nil {
			return nil, err
		}
	}
	e.clients = nil
	var times []float64
	for i := 0; i < recoverRepeats; i++ {
		opts := e.stack.opts
		if err := e.stack.close(); err != nil {
			return nil, err
		}
		e.stack = nil
		start := time.Now()
		stack, err := openCentralStack(e.dir, opts)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		e.stack = stack
		e.census(rep, i)
	}
	return times, nil
}

// census compares what the store lists with what was acked.
func (e *uploadEnv) census(rep *report, reopen int) {
	want := periodRange(1, len(e.grid[0]))
	ok := len(e.stack.durable.Locations()) == len(e.grid)
	for l := range e.grid {
		got := e.stack.durable.Periods(vhash.LocationID(l + 1))
		if len(got) != len(want) {
			ok = false
			continue
		}
		for i := range got {
			ok = ok && got[i] == want[i]
		}
	}
	rep.check(ok, "census after reopen %d differs from the %d acked records", reopen, e.records())
}

// verifyQueries asks the stack a few point, point-to-point and volume
// questions over the wire and checks them against the generator.
func (e *uploadEnv) verifyQueries(c *config, rep *report) error {
	cl, err := transport.Dial(e.stack.addr(), dialTimeout)
	if err != nil {
		return err
	}
	v := &verifier{rep: rep, corrupt: c.corruptReference, fleet: uploadFleet}
	sample := newRNG(c.seed ^ 0x5eed)
	periods := len(e.grid[0])
	for i := 0; i < 12; i++ {
		t := []int{3, 5, 10}[i%3]
		la, lb := sample.intn(len(e.grid)), sample.intn(len(e.grid)-1)
		if lb >= la {
			lb++
		}
		first := sample.intn(periods - t + 1)
		a, b := e.grid[la][first:first+t], e.grid[lb][first:first+t]
		ps := periodRange(a[0].Period, t)
		got, err := cl.QueryPointPersistent(a[0].Location, ps)
		v.point(got, err, a)
		got, err = cl.QueryPointToPointPersistent(a[0].Location, b[0].Location, ps)
		v.p2p(got, err, a, b)
		got, err = cl.QueryVolume(a[0].Location, a[0].Period)
		v.volume(got, err, a[0])
	}
	return cl.Close()
}

// settle waits, off every clock, until the kernel has written back what
// the phase before left dirty, so a checkpoint or a recovery is timed on
// its own work and not on the upload's leftovers.
func settle() { syscall.Sync() }

func runUploadDurable(c *config, rep *report) (err error) {
	if c.trace {
		return traceUploadDurable(c, rep)
	}
	e, setupS, err := timedSetup(func() (*uploadEnv, error) { return buildUpload(c) })
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	rep.digest = e.digest.String()
	run := &uploadRun{}
	if err := e.upload(nil, 0, len(e.batches), run); err != nil {
		return err
	}
	if err := e.verifyQueries(c, rep); err != nil {
		return err
	}
	settle()
	ckpts, err := e.checkpoints()
	if err != nil {
		return err
	}
	settle()
	recovers, err := e.recoveries(rep)
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)
	rep.set("upload_records_per_s", run.rate(e.records()))
	rep.setPercentile("upload_ack_p50_ms", run.acks, 0.50)
	rep.set("checkpoint_s", median(ckpts))
	rep.set("recover_s", median(recovers))
	rep.notef("%d records (%d MiB) acked in %.2f s; checkpoints %s s; recoveries %s s",
		e.records(), e.userBytes()>>20, run.elapsed.Seconds(), fmtSeconds(ckpts), fmtSeconds(recovers))
	return nil
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " / ")
}

func traceUploadDurable(c *config, rep *report) (err error) {
	in, err := genUpload(c)
	if err != nil {
		return err
	}
	rep.digest = in.digest.String()
	tr := newTracer(32 * len(in.batches))
	e, err := openUpload(c, in, "traced", tr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	log0, cache0 := e.stack.durable.LogStats(), e.stack.tiered.CacheStats()
	plain, traced := &uploadRun{}, &uploadRun{}
	err = func() (err error) {
		plainEnv, err := openUpload(c, in, "plain", nil)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, plainEnv.close()) }()
		return alternate(len(in.batches),
			func(lo, hi int) error { return plainEnv.upload(nil, lo, hi, plain) },
			func(lo, hi int) error { return e.upload(tr, lo, hi, traced) })
	}()
	if err != nil {
		return err
	}
	log1, cache1 := e.stack.durable.LogStats(), e.stack.tiered.CacheStats()
	if err := e.verifyQueries(c, rep); err != nil {
		return err
	}
	times, err := finishTrace(rep, tr)
	if err != nil {
		return err
	}

	rep.set("trace_overhead_pct", overheadPct(plain.rate(e.records()), traced.rate(e.records())))
	rep.set("transport.upload_self_us", median(times.self["client.UploadBatch"]))
	rep.setPercentile("transport.upload_ack_p99_ms", traced.acks, 0.99)
	rep.set("central.ingest_us", median(times.total["central.Ingest"]))
	rep.set("central.ingest_self_us", median(times.self["central.Ingest"]))
	rep.set("store.ingest_us", median(times.total["store.Ingest"]))
	rep.setPercentile("store.ingest_p99_us", times.total["store.Ingest"], 0.99)

	// One acked batch: framing and loopback once ("client"), then the
	// eight records' ingests one after another.
	if err := blockingPath(rep, times, "client.UploadBatch", "upload_ack_p50_ms", plain.acks); err != nil {
		return err
	}
	rep.notef("upload_records_per_s untraced %.0f, traced %.0f", plain.rate(e.records()), traced.rate(e.records()))

	setWALDeltas(rep, log0, log1)
	setBlockCacheDeltas(rep, cache0, cache1)
	rep.set("store.cold_records", float64(e.stack.tiered.Stats().ColdRecords))
	walBytes, err := dirBytes(e.stack.walDir())
	if err != nil {
		return err
	}
	segBytes, err := dirBytes(e.stack.segDir())
	if err != nil {
		return err
	}
	rep.set("wal.bytes_per_user_byte_upload", float64(walBytes)/float64(e.userBytes()))
	rep.set("store.segment_bytes_per_user_byte", float64(segBytes)/float64(e.userBytes()))

	settle()
	ckpts, err := e.checkpoints()
	if err != nil {
		return err
	}
	if walBytes, err = dirBytes(e.stack.walDir()); err != nil {
		return err
	}
	rep.set("wal.bytes_per_user_byte_ckpt", float64(walBytes)/float64(e.userBytes()))
	ckptBytes, err := checkpointBytes(e.stack.walDir())
	if err != nil {
		return err
	}
	rep.set("central.checkpoint_bytes", float64(ckptBytes))
	settle()
	recovers, err := e.recoveries(rep)
	if err != nil {
		return err
	}
	rep.notef("checkpoints %s s; recoveries %s s", fmtSeconds(ckpts), fmtSeconds(recovers))

	// Direct drive on the workload's own records and directory.
	if err := driveRecordCodec(rep, e.grid[0][0], "m15"); err != nil {
		return err
	}
	big, err := noisyRecord(newRNG(c.seed), 1, 1, make([]uint64, queryM/64))
	if err != nil {
		return err
	}
	if err := driveRecordCodec(rep, big, "m20"); err != nil {
		return err
	}
	if err := driveFrameEncode(rep, e.batches[0]); err != nil {
		return err
	}
	return driveWALAppend(rep, filepath.Join(e.dir, "scratch-wal"))
}

// checkpointBytes sums the checkpoint files in a WAL directory.
func checkpointBytes(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
