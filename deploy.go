package ptm

import (
	"crypto/tls"
	"io"
	"log"
	"net"
	"time"

	"ptm/internal/central"
	"ptm/internal/dsrc"
	"ptm/internal/pki"
	"ptm/internal/rsu"
	"ptm/internal/transport"
	"ptm/internal/trips"
	"ptm/internal/vehicle"
	"ptm/internal/wal"
)

// Deployment components: the full measurement system of Section II, from
// trusted authority to central server, re-exported for applications that
// want to run the protocol rather than just the math.
type (
	// Authority is the trusted third party issuing RSU certificates.
	Authority = pki.Authority
	// Credential is an RSU's certificate and signing key.
	Credential = pki.Credential
	// Channel is a simulated DSRC radio neighborhood with optional loss.
	Channel = dsrc.Channel
	// ChannelConfig tunes beacon/report loss probabilities.
	ChannelConfig = dsrc.Config
	// Beacon is an RSU broadcast.
	Beacon = dsrc.Beacon
	// RSU is a road-side unit runtime.
	RSU = rsu.RSU
	// Vehicle is an on-board unit.
	Vehicle = vehicle.Vehicle
	// CentralServer stores records and answers persistent-traffic
	// queries.
	CentralServer = central.Server
	// DurableCentralServer is a CentralServer backed by a write-ahead
	// log: every ingested record is on disk before the upload is
	// acknowledged, and the store recovers after a crash.
	DurableCentralServer = central.Durable
	// CentralStore is the record-store interface a TransportServer
	// fronts; both *CentralServer and *DurableCentralServer satisfy it.
	CentralStore = transport.Store
	// TransportServer exposes a CentralStore over TCP.
	TransportServer = transport.Server
	// Client is a TCP client for record upload and queries.
	Client = transport.Client
	// WALOptions tunes the durability plane's segmented log (segment
	// size). Every append is fsynced (group-committed) before the Ack:
	// an acknowledged record survives power loss.
	WALOptions = wal.Options
)

// ErrServerClosed is returned by TransportServer.Serve after Close; use
// it to tell an orderly shutdown from a transport failure.
var ErrServerClosed = transport.ErrServerClosed

// NewAuthority creates the trusted third party, valid from now for the
// given duration.
func NewAuthority(now time.Time, validity time.Duration) (*Authority, error) {
	return pki.NewAuthority(now, validity)
}

// NewChannel creates a DSRC broadcast channel.
func NewChannel(cfg ChannelConfig) (*Channel, error) {
	return dsrc.NewChannel(cfg)
}

// NewRSU wires an RSU (credential from Authority.IssueRSU) to its radio
// channel under load factor f; clock may be nil for time.Now.
func NewRSU(cred *Credential, ch *Channel, f float64, clock func() time.Time) (*RSU, error) {
	return rsu.New(cred, ch, f, clock)
}

// NewVehicle creates an on-board unit from its private identity and the
// authority's trust anchor. One-time MAC addresses come from crypto/rand;
// simulations needing reproducible addresses can use
// vehicle.NewWithMACSource directly.
func NewVehicle(id *VehicleIdentity, a *Authority, clock func() time.Time) (*Vehicle, error) {
	return vehicle.New(id, a.TrustAnchor(), clock)
}

// NewCentralServer creates an empty record store configured with the
// system-wide representative-bit count s and the default shard count.
func NewCentralServer(s int) (*CentralServer, error) {
	return central.NewServer(s)
}

// OpenDurableCentralServer opens a WAL-backed record store rooted at
// dir, recovering any previous contents (newest checkpoint plus newer
// log segments). checkpointEvery > 0 compacts the log automatically
// after that many ingested records; 0 compacts only on explicit
// Checkpoint calls.
func OpenDurableCentralServer(dir string, s int, opts WALOptions, checkpointEvery int) (*DurableCentralServer, error) {
	return central.OpenDurable(dir, s, opts, checkpointEvery)
}

// NewTransportServer exposes a record store (in-memory or durable) over
// the wire protocol; logger may be nil.
func NewTransportServer(store CentralStore, logger *log.Logger) (*TransportServer, error) {
	return transport.NewServer(store, logger)
}

// Dial connects to a central server's TCP endpoint.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return transport.Dial(addr, timeout)
}

// NewClient wraps an established connection (e.g. net.Pipe in tests).
func NewClient(conn net.Conn) *Client {
	return transport.NewClient(conn)
}

// DialTLS connects to a central server over TLS 1.3. Obtain cfg from
// Authority.ClientTLSConfig and the server certificate from
// Authority.IssueTLSServer + ServerTLSConfig.
func DialTLS(addr string, cfg *tls.Config, timeout time.Duration) (*Client, error) {
	return transport.DialTLS(addr, cfg, timeout)
}

// ServerTLSConfig wraps an authority-issued TLS certificate into a config
// for tls.NewListener.
func ServerTLSConfig(cert tls.Certificate) *tls.Config {
	return pki.ServerTLSConfig(cert)
}

// RSU scheduling (time-driven period rotation and record upload).
type (
	// RSUController runs an RSU on a wall-clock schedule.
	RSUController = rsu.Controller
	// RSUSchedule configures period length, beacon cadence and the first
	// period's number.
	RSUSchedule = rsu.Schedule
	// RSUSpool is an RSU's on-disk store-and-forward buffer: records
	// wait in it until the central server takes them.
	RSUSpool = rsu.Spool
)

// OpenRSUSpool opens (or creates) an RSU spool directory; records left
// by a previous run are delivered by the next drain.
func OpenRSUSpool(dir string) (*RSUSpool, error) {
	return rsu.OpenSpool(dir)
}

// NewRSUController assembles a schedule-driven RSU runtime. Each ended
// period's record goes into spool and is delivered through send,
// typically Client.UploadBatch; a record the backhaul refuses stays
// spooled and is retried, never dropped. expected returns the Eq. (2)
// historical volume expectation per period; clock nil selects the real
// clock.
func NewRSUController(r *RSU, sched RSUSchedule, spool *RSUSpool, send func([]*Record) (int, error), expected func(PeriodID) float64, clock rsu.TickClock) (*RSUController, error) {
	return rsu.NewController(r, sched, spool, send, expected, clock)
}

// Sioux Falls evaluation data (Section VI-A).
type (
	// TripTable is an origin–destination trip table.
	TripTable = trips.Table
	// Zone is a traffic zone of the Sioux Falls network.
	Zone = trips.Zone
)

// SiouxFalls returns the 24-zone Sioux Falls trip table calibrated to the
// aggregates the paper publishes in Table I.
func SiouxFalls() *TripTable {
	return trips.NewSiouxFalls()
}

// SiouxFallsLPrime is the maximum-volume zone the paper uses as L'.
const SiouxFallsLPrime = trips.LPrime

// NewTripTable creates an empty origin–destination table with n zones;
// fill it with SetOD or load one with LoadTripTableCSV.
func NewTripTable(n int) (*TripTable, error) {
	return trips.NewEmpty(n)
}

// LoadTripTableCSV parses a "from,to,volume" CSV into a trip table, so
// deployments can run the estimators against their own network data.
func LoadTripTableCSV(r io.Reader) (*TripTable, error) {
	return trips.LoadCSV(r)
}
