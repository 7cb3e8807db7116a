// Package aesql exposes the Always Encrypted client stack through the
// standard database/sql interface: a driver ("aedb") layered over
// internal/pool and internal/driver, so applications get the paper's §4.1
// transparency — describe-driven parameter encryption, attestation, CEK
// handling — behind the API they already use, with connection pooling and
// LSN-bounded replica read routing underneath.
//
// Usage:
//
//	aesql.RegisterTrust("prod", aesql.Trust{Policy: &policy, Providers: reg})
//	db, _ := sql.Open("aedb", "aedb://10.0.0.1:1433,10.0.0.2:1433/?ae=1&trust=prod")
//	db.QueryRowContext(ctx, "SELECT name FROM patients WHERE ssn = @ssn", sql.Named("ssn", s))
//
// The DSN host part lists endpoints comma-separated, primary first, read
// replicas after. Because database/sql maintains its own pool of driver
// connections, aesql connections are virtual sessions: each statement checks
// a transport connection out of the shared internal/pool underneath (writes
// and transactions pin the primary; fresh-enough reads ride replicas) and
// returns it immediately, so replica routing works per statement even though
// database/sql pins a driver connection per logical session.
//
// Read-your-writes is a session guarantee: each driver connection tracks the
// LSN of its last write and never reads from a replica that has not applied
// it. Under database/sql a session is a driver connection, so the guarantee
// holds within a sql.Conn or sql.Tx scope (and for sequential use of one
// *sql.DB); `consistency=global` widens the bound to every write the whole
// pool has seen, `consistency=primary` disables replica reads entirely.
package aesql

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"alwaysencrypted/internal/attestation"
	aedriver "alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/pool"
)

// Trust bundles the client-side security material a DSN cannot carry as a
// string: attestation trust anchors and key providers. Register a bundle
// under a name and reference it from the DSN with trust=<name> — the string
// stays loggable while the keys stay out of it.
type Trust struct {
	// Policy validates server attestations (required for ae=1 with enclaves).
	Policy *attestation.Policy
	// Providers resolves CMK key paths to key material.
	Providers *keys.ProviderRegistry
	// TrustedKeyPaths restricts acceptable CMK key paths (§4.1).
	TrustedKeyPaths []string
	// Obs receives driver and pool instruments; nil disables them.
	Obs *obs.Registry
}

var (
	trustMu  sync.Mutex
	trustReg = map[string]Trust{}
)

// RegisterTrust registers (or replaces) a named trust bundle for DSN lookup.
func RegisterTrust(name string, t Trust) {
	trustMu.Lock()
	trustReg[name] = t
	trustMu.Unlock()
}

func lookupTrust(name string) (Trust, bool) {
	trustMu.Lock()
	t, ok := trustReg[name]
	trustMu.Unlock()
	return t, ok
}

// Consistency selects the freshness bound for replica-routed reads.
type Consistency int

const (
	// ConsistencySession (default): a read must reflect this session's own
	// writes. Per-statement reads ride replicas as soon as the replica has
	// applied the session's last write.
	ConsistencySession Consistency = iota
	// ConsistencyGlobal: a read must reflect every write the pool has
	// observed from any session — stronger, but under a steady write load
	// replicas rarely qualify.
	ConsistencyGlobal
	// ConsistencyPrimary: never read from replicas.
	ConsistencyPrimary
)

// Config is the parsed form of an aedb DSN.
type Config struct {
	// Primary is the primary endpoint; Replicas the read replicas.
	Primary  string
	Replicas []string
	// AlwaysEncrypted maps to the driver's AE connection-string property.
	AlwaysEncrypted bool
	// TrustName names a bundle registered via RegisterTrust ("" for none —
	// plaintext-only connections need no anchors).
	TrustName string
	// Consistency is the replica read-routing mode.
	Consistency Consistency
	// MaxConns / MaxIdle / HealthInterval tune the underlying pool
	// (zero = pool defaults).
	MaxConns       int
	MaxIdle        int
	HealthInterval time.Duration
	// DisableDescribeCache opts out of the pool's shared describe cache.
	DisableDescribeCache bool
}

// DSN renders the config back into a connection string.
func (c Config) DSN() string {
	hosts := strings.Join(append([]string{c.Primary}, c.Replicas...), ",")
	q := url.Values{}
	if c.AlwaysEncrypted {
		q.Set("ae", "1")
	}
	if c.TrustName != "" {
		q.Set("trust", c.TrustName)
	}
	switch c.Consistency {
	case ConsistencyGlobal:
		q.Set("consistency", "global")
	case ConsistencyPrimary:
		q.Set("consistency", "primary")
	}
	if c.MaxConns > 0 {
		q.Set("maxconns", strconv.Itoa(c.MaxConns))
	}
	if c.MaxIdle > 0 {
		q.Set("maxidle", strconv.Itoa(c.MaxIdle))
	}
	if c.HealthInterval != 0 {
		q.Set("health", c.HealthInterval.String())
	}
	if c.DisableDescribeCache {
		q.Set("describecache", "0")
	}
	s := "aedb://" + hosts + "/"
	if enc := q.Encode(); enc != "" {
		s += "?" + enc
	}
	return s
}

// ParseDSN parses an aedb connection string:
//
//	aedb://primary[,replica...]/?ae=1&trust=name&consistency=session|global|primary
//	      &maxconns=8&maxidle=8&health=50ms&describecache=0
func ParseDSN(dsn string) (Config, error) {
	var cfg Config
	rest, ok := strings.CutPrefix(dsn, "aedb://")
	if !ok {
		return cfg, fmt.Errorf("aesql: DSN must start with aedb://, got %q", dsn)
	}
	hostPart := rest
	var query string
	if i := strings.IndexAny(rest, "/?"); i >= 0 {
		hostPart = rest[:i]
		query = strings.TrimPrefix(strings.TrimPrefix(rest[i:], "/"), "?")
	}
	hosts := strings.Split(hostPart, ",")
	if slices.Contains(hosts, "") {
		return cfg, fmt.Errorf("aesql: DSN %q has an empty endpoint", dsn)
	}
	cfg.Primary = hosts[0]
	cfg.Replicas = hosts[1:]

	vals, err := url.ParseQuery(query)
	if err != nil {
		return cfg, fmt.Errorf("aesql: DSN query: %w", err)
	}
	for key := range vals {
		switch key {
		case "ae", "trust", "consistency", "maxconns", "maxidle", "health", "describecache":
		default:
			return cfg, fmt.Errorf("aesql: unknown DSN parameter %q", key)
		}
	}
	switch v := vals.Get("ae"); v {
	case "", "0", "false":
	case "1", "true":
		cfg.AlwaysEncrypted = true
	default:
		return cfg, fmt.Errorf("aesql: bad ae=%q", v)
	}
	cfg.TrustName = vals.Get("trust")
	switch v := vals.Get("consistency"); v {
	case "", "session":
		cfg.Consistency = ConsistencySession
	case "global":
		cfg.Consistency = ConsistencyGlobal
	case "primary":
		cfg.Consistency = ConsistencyPrimary
	default:
		return cfg, fmt.Errorf("aesql: bad consistency=%q", v)
	}
	if v := vals.Get("maxconns"); v != "" {
		if cfg.MaxConns, err = strconv.Atoi(v); err != nil || cfg.MaxConns <= 0 {
			return cfg, fmt.Errorf("aesql: bad maxconns=%q", v)
		}
	}
	if v := vals.Get("maxidle"); v != "" {
		if cfg.MaxIdle, err = strconv.Atoi(v); err != nil || cfg.MaxIdle <= 0 {
			return cfg, fmt.Errorf("aesql: bad maxidle=%q", v)
		}
	}
	if v := vals.Get("health"); v != "" {
		if cfg.HealthInterval, err = time.ParseDuration(v); err != nil {
			return cfg, fmt.Errorf("aesql: bad health=%q", v)
		}
	}
	if v := vals.Get("describecache"); v == "0" || v == "false" {
		cfg.DisableDescribeCache = true
	}
	return cfg, nil
}

// Driver is the database/sql driver; registered as "aedb" in init.
type Driver struct{}

// Open implements driver.Driver. database/sql prefers OpenConnector (we
// implement DriverContext); Open shares the same connector per DSN so that
// even the legacy path pools correctly.
func (d Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.(*Connector).connect()
}

// OpenConnector implements driver.DriverContext: one Connector (and one
// underlying pool) per DSN, shared across every sql.DB opened with it.
func (d Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	connMu.Lock()
	defer connMu.Unlock()
	if c, ok := connectors[dsn]; ok {
		return c, nil
	}
	c := &Connector{cfg: cfg}
	connectors[dsn] = c
	return c, nil
}

var (
	connMu     sync.Mutex
	connectors = map[string]*Connector{}
)

// NewConnector builds a connector from an explicit Config (bypassing the DSN
// string), for callers that want sql.OpenDB with programmatic configuration.
func NewConnector(cfg Config) *Connector { return &Connector{cfg: cfg} }

// Connector implements driver.Connector: it owns the shared pool, created
// lazily on first Connect so that sql.Open (which never dials) stays cheap.
type Connector struct {
	cfg Config

	mu   sync.Mutex
	pool *pool.Pool
}

// Connect implements driver.Connector.
func (c *Connector) Connect(context.Context) (sqldriver.Conn, error) {
	return c.connect()
}

func (c *Connector) connect() (sqldriver.Conn, error) {
	p, err := c.Pool()
	if err != nil {
		return nil, err
	}
	return &conn{pool: p, cfg: c.cfg}, nil
}

// Pool returns the connector's shared pool, creating it on first use.
func (c *Connector) Pool() (*pool.Pool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool != nil {
		return c.pool, nil
	}
	var trust Trust
	if c.cfg.TrustName != "" {
		t, ok := lookupTrust(c.cfg.TrustName)
		if !ok {
			return nil, fmt.Errorf("aesql: trust bundle %q not registered", c.cfg.TrustName)
		}
		trust = t
	}
	if c.cfg.AlwaysEncrypted && trust.Policy == nil {
		return nil, errors.New("aesql: ae=1 requires a registered trust bundle with an attestation policy")
	}
	p, err := pool.New(pool.Config{
		Primary:  c.cfg.Primary,
		Replicas: c.cfg.Replicas,
		Driver: aedriver.Config{
			AlwaysEncrypted: c.cfg.AlwaysEncrypted,
			Providers:       trust.Providers,
			TrustedKeyPaths: trust.TrustedKeyPaths,
			Policy:          trust.Policy,
		},
		MaxConns:             c.cfg.MaxConns,
		MaxIdle:              c.cfg.MaxIdle,
		HealthInterval:       c.cfg.HealthInterval,
		DisableDescribeCache: c.cfg.DisableDescribeCache,
		Obs:                  trust.Obs,
	})
	if err != nil {
		return nil, err
	}
	c.pool = p
	return p, nil
}

// Driver implements driver.Connector.
func (c *Connector) Driver() sqldriver.Driver { return Driver{} }

// Close implements io.Closer: database/sql calls it from DB.Close, shutting
// the shared pool down.
func (c *Connector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
	connMu.Lock()
	for dsn, reg := range connectors {
		if reg == c {
			delete(connectors, dsn)
		}
	}
	connMu.Unlock()
	return nil
}

func init() {
	sql.Register("aedb", Driver{})
}
