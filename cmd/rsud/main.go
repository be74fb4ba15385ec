// Command rsud simulates one road-side unit and its radio neighborhood:
// per measurement period it beacons, collects reports from a synthetic
// vehicle population (a persistent fleet plus per-period transients) over
// a lossy DSRC channel, and uploads the resulting traffic record to
// centrald.
//
//	rsud -central 127.0.0.1:7700 -loc 1 -periods 5 -fleet 500 -transients 3000
//
// The persistent fleet re-appears every period (the ground truth for point
// persistent traffic, printed at exit); transients are fresh each period.
//
// With -spool DIR the RSU stores and forwards: a record whose upload
// fails is appended to an on-disk log instead of aborting the run, and a
// drainer retries delivery (redialing after a transport failure, capped
// exponential backoff) at startup and after the last period. Spooled
// records survive rsud restarts.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ptm/internal/cli"
	"ptm/internal/dsrc"
	"ptm/internal/pki"
	"ptm/internal/record"
	"ptm/internal/rsu"
	"ptm/internal/transport"
	"ptm/internal/vehicle"
	"ptm/internal/vhash"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rsud:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rsud", flag.ContinueOnError)
	var (
		centralAddr = fs.String("central", "127.0.0.1:7700", "central server address")
		loc         = fs.Uint64("loc", 1, "RSU location ID")
		periods     = fs.Int("periods", 5, "measurement periods to simulate")
		fleet       = fs.Int("fleet", 500, "persistent fleet size (passes every period)")
		transients  = fs.Int("transients", 3000, "fresh transient vehicles per period")
		loss        = fs.Float64("loss", 0.0, "beacon loss probability")
		beacons     = fs.Int("beacons", 10, "beacons per period (lossy channels need several)")
		f           = fs.Float64("f", 2.0, "bitmap load factor (Eq. 2)")
		s           = fs.Int("s", 3, "representative bits per vehicle")
		seed        = fs.Uint64("seed", 1, "RNG seed")
		spoolDir    = fs.String("spool", "", "store-and-forward directory (empty: fail on upload error)")
		pace        = fs.Duration("pace", 0, "delay between periods (lets operators watch or kill mid-run)")
		drainTries  = fs.Int("drain-attempts", 0, "spool drain attempts per drain (0: default)")
		drainBase   = fs.Duration("drain-base", 0, "first spool-drain backoff delay (0: default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, fmt.Sprintf("rsud[%d]: ", *loc), log.LstdFlags)

	now := time.Now()
	authority, err := pki.NewAuthority(now, 365*24*time.Hour)
	if err != nil {
		return err
	}
	cred, err := authority.IssueRSU(vhash.LocationID(*loc), now, 365*24*time.Hour)
	if err != nil {
		return err
	}
	ch, err := dsrc.NewChannel(dsrc.Config{BeaconLoss: *loss, Seed: int64(*seed)})
	if err != nil {
		return err
	}
	unit, err := rsu.New(cred, ch, *f, nil)
	if err != nil {
		return err
	}
	peers := transport.NewPeers(5 * time.Second)
	defer func() {
		//ptmlint:allow errdrop -- process exit path; nothing to do about a close error
		_ = peers.Close()
	}()
	// send uploads one batch; the connection cache redials once after a
	// transport failure, so a drain attempt never reuses a dead
	// connection.
	send := func(recs []*record.Record) (int, error) {
		var n int
		err := peers.Call(*centralAddr, func(c *transport.Client) error {
			var err error
			n, err = c.UploadBatch(recs)
			return err
		})
		return n, err
	}

	var spool *rsu.Spool
	backoff := rsu.Backoff{Attempts: *drainTries, Base: *drainBase}
	if *spoolDir != "" {
		if spool, err = rsu.OpenSpool(*spoolDir); err != nil {
			return err
		}
		defer spool.Close()
		// Deliver anything a previous run left behind before adding to it.
		if spool.Pending() > 0 {
			n, err := spool.DrainWithRetry(send, backoff)
			if err != nil {
				logger.Printf("startup drain: %d delivered, %d still spooled: %v", n, spool.Pending(), err)
			} else if n > 0 {
				logger.Printf("startup drain: delivered %d spooled records", n)
			}
		}
	} else if err := peers.Call(*centralAddr, func(*transport.Client) error { return nil }); err != nil {
		// No spool: keep the old fail-fast contract, including refusing
		// to start when the central server is unreachable.
		return err
	}

	newVehicle := func(id vhash.VehicleID) (*vehicle.Vehicle, error) {
		ident, err := vhash.NewSeededIdentity(id, *s, *seed)
		if err != nil {
			return nil, err
		}
		return vehicle.New(ident, authority.TrustAnchor(), nil)
	}
	persistent := make([]*vehicle.Vehicle, *fleet)
	for i := range persistent {
		if persistent[i], err = newVehicle(vhash.VehicleID(i)); err != nil {
			return err
		}
	}

	nextTransient := vhash.VehicleID(1 << 32)
	expected := float64(*fleet + *transients)
	for p := 1; p <= *periods; p++ {
		if err := unit.StartPeriod(record.PeriodID(p), expected); err != nil {
			return err
		}
		var leaves []func()
		join := func(v *vehicle.Vehicle) error {
			leave, err := v.PassThrough(ch)
			if err != nil {
				return err
			}
			leaves = append(leaves, leave)
			return nil
		}
		for _, v := range persistent {
			if err := join(v); err != nil {
				return err
			}
		}
		for i := 0; i < *transients; i++ {
			tv, err := newVehicle(nextTransient)
			if err != nil {
				return err
			}
			nextTransient++
			if err := join(tv); err != nil {
				return err
			}
		}
		for b := 0; b < *beacons; b++ {
			if err := unit.Beacon(); err != nil {
				return err
			}
		}
		for _, leave := range leaves {
			leave()
		}
		st := unit.Stats()
		rec, err := unit.EndPeriod()
		if err != nil {
			return err
		}
		disposition := "uploaded"
		// A duplicate is delivered: the server already holds the
		// record, as after a retried upload whose first ack was lost.
		if _, err := send([]*record.Record{rec}); err != nil && !transport.IsDuplicate(err) {
			if spool == nil || transport.IsRemote(err) {
				// Other application-level rejections (bad record) would
				// fail identically on redelivery; only transport
				// failures are worth spooling.
				return fmt.Errorf("uploading period %d: %w", p, err)
			}
			logger.Printf("period %d: upload failed (%v); spooling", p, err)
			if err := spool.Enqueue(rec); err != nil {
				return err
			}
			disposition = "spooled"
		}
		logger.Printf("period %d: m=%d reports=%d ones=%.3f %s",
			p, rec.Size(), st.ReportsSeen, rec.Bitmap.FractionOne(), disposition)
		if *pace > 0 && p < *periods {
			time.Sleep(*pace)
		}
	}
	drained := 0
	if spool != nil && spool.Pending() > 0 {
		if drained, err = spool.DrainWithRetry(send, backoff); err != nil {
			return fmt.Errorf("draining spool: %w (%d records still spooled)", err, spool.Pending())
		}
		logger.Printf("drained %d spooled records", drained)
	}
	chStats := ch.Stats()
	logger.Printf("done: %d periods, beacon loss %d/%d, ground-truth persistent fleet = %d",
		*periods, chStats.BeaconsLost, chStats.BeaconsSent, *fleet)
	p := cli.NewPrinter(out)
	p.Printf("location %d: uploaded %d periods; true persistent volume %d\n", *loc, *periods, *fleet)
	return p.Err()
}
