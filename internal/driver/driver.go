// Package driver is the AE-enabled client driver of §4.1 — the counterpart
// of the enhanced ADO.NET/ODBC/JDBC drivers. Given a parameterized query
// with plaintext arguments it:
//
//  1. invokes sp_describe_parameter_encryption (a real extra round trip —
//     the overhead measured by the SQL-PT-AEConn configuration of §5);
//  2. verifies attestation (§4.2) the first time the enclave is needed,
//     deriving the shared session secret;
//  3. resolves CEKs through client-side key providers — checking the CMK
//     metadata signature and the trusted key path list, so a lying server
//     cannot substitute keys (§4.1) — and caches the plaintext CEKs;
//  4. encrypts parameters per the describe output, ships enclave CEKs over
//     the secure channel with fresh nonces, and transparently authorizes
//     enclave DDL by sealing the statement hash (§3.2);
//  5. decrypts result cells before handing rows to the application.
//
// With Config.AlwaysEncrypted unset the driver behaves like a plain client
// (the SQL-PT baseline): no describe call, no encryption.
package driver

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/tds"
)

// Config is the connection configuration ("connection string").
type Config struct {
	// AlwaysEncrypted corresponds to the AE connection-string property: when
	// false the driver never calls sp_describe_parameter_encryption (§4.1).
	AlwaysEncrypted bool
	// Providers resolves CMK key paths to key material.
	Providers *keys.ProviderRegistry
	// TrustedKeyPaths, when non-empty, restricts acceptable CMK key paths —
	// the §4.1 defence against the server returning malicious key metadata.
	TrustedKeyPaths []string
	// Policy validates attestation; required for enclave queries.
	Policy *attestation.Policy
	// DescribeCache caches describe results per query text. Off by default
	// on a bare Conn — the paper's measured configuration pays the round
	// trip every time, and §5.4.1 notes caching as the obvious future
	// optimization — but internal/pool turns it on by default for pooled
	// connections, which is where Fig. 8's extra round trip actually
	// amortizes. The cache is safe to serve stale: an out-of-date describe
	// makes the driver encrypt against metadata the server will reject (a
	// ServerError, never silent corruption), and the driver then drops the
	// entry and retries once against a fresh describe (see retry). Schema-
	// changing statements issued through this connection invalidate the
	// cache eagerly.
	DescribeCache bool
	// CEKCacheTTL bounds the plaintext CEK cache (§4.1: "caches the
	// decrypted CEKs for a duration that can be controlled by clients").
	CEKCacheTTL time.Duration
	// ForceEncrypted lists parameters the application requires to be
	// encrypted; if the server claims they are plaintext, the driver refuses
	// (§4.1's defence against a lying sp_describe output).
	ForceEncrypted []string
	// Now is a clock hook for cache-expiry tests.
	Now func() time.Time
	// Obs receives driver instruments (driver.failovers,
	// driver.attestations, driver.reattestations); nil disables them.
	Obs *obs.Registry
}

// Errors surfaced by the driver.
var (
	ErrUntrustedKeyPath  = errors.New("driver: CMK key path not in the trusted list")
	ErrForcedEncryption  = errors.New("driver: server claims a force-encrypted parameter is plaintext")
	ErrNoPolicy          = errors.New("driver: enclave query requires an attestation policy")
	ErrCMKNotEnclaveable = errors.New("driver: CMK does not authorize enclave computations for this CEK")
	// ErrIndeterminate reports a DML statement whose outcome is unknown: the
	// connection died after the statement was sent, so the old primary may
	// have applied (and replicated) it before dying. The driver fails over but
	// does NOT re-execute — transparent retry would give at-least-once
	// semantics (duplicate rows, double-applied updates). The application must
	// verify state before retrying.
	ErrIndeterminate = errors.New("driver: statement outcome indeterminate after connection loss")
)

// Conn is an AE-aware client connection. Not safe for concurrent use; open
// one Conn per worker (the process-wide caches of §4.1 are modelled by
// sharing a Cache across Conns).
type Conn struct {
	cfg    Config
	tds    *tds.Conn
	caches *Cache

	// addrs holds the failover address list (primary first, replicas after);
	// current indexes the address the live connection was dialed to. Empty
	// addrs means a single-endpoint connection with no failover.
	addrs   []string
	current int

	secret    [32]byte
	hasSecret bool
	sid       uint64
	nonce     uint64
	// dh is the connection's ephemeral DH keypair, generated once and sent
	// with describe calls until a shared secret is established (§4.2 folds
	// the key exchange into attestation to save round trips).
	dh *dhState

	// installedCEKs tracks CEKs already shipped to the enclave under this
	// session's secret.
	installedCEKs map[string]bool

	// inTxn tracks an open explicit transaction: failover retry is unsafe
	// mid-transaction (the server rolled it back with the dead session).
	inTxn bool
	// failedOver marks that at least one failover occurred on this Conn; the
	// next successful attestation counts as a re-attestation.
	failedOver bool

	// cachedDescribe is the query whose describe the current attempt was
	// served from the shared cache, "" if it described afresh — the
	// precondition (and the entry to drop) for the stale-describe rerun in
	// retry.
	cachedDescribe string

	// Stats
	DescribeCalls int
	ExecCalls     int
	Failovers     int

	// lastTrace is the trace ID minted for the most recent statement; see
	// LastTraceID. Benchmarks use it to join client-side latency samples
	// with server-side traces.
	lastTrace trace.ID
	// traceLog accumulates every minted trace ID while collectTraces is on
	// (CollectTraceIDs), so a caller can join all statements of a multi-
	// statement transaction to their server-side traces.
	collectTraces bool
	traceLog      []trace.ID

	failovers *obs.Counter
	attests   *obs.Counter
	reattests *obs.Counter
	describes *obs.Counter
}

// Cache holds the process-wide driver caches of §4.1: decrypted CEKs and
// describe results, shared across the entire client process.
type Cache struct {
	mu        sync.Mutex
	ceks      map[string]cekEntry
	describes map[string]*tds.DescribeResp
}

type cekEntry struct {
	root    []byte
	cell    *aecrypto.CellKey
	expires time.Time
}

// NewCache creates an empty shared cache.
func NewCache() *Cache {
	return &Cache{ceks: make(map[string]cekEntry), describes: make(map[string]*tds.DescribeResp)}
}

// invalidateDescribes drops cached describe results. They embed the enclave
// session id of the server that produced them; after failover that session
// is gone.
func (c *Cache) invalidateDescribes() {
	c.mu.Lock()
	c.describes = make(map[string]*tds.DescribeResp)
	c.mu.Unlock()
}

// dropDescribe evicts one query's cached describe — the stale-describe
// recovery path: the server rejected a statement whose encryption metadata
// came from the cache, so that metadata no longer matches the schema.
func (c *Cache) dropDescribe(query string) {
	c.mu.Lock()
	delete(c.describes, query)
	c.mu.Unlock()
}

// Zeroize wipes every cached plaintext CEK root and derived cell key and
// empties the cache. Call it at process teardown, after all connections
// sharing the cache are closed: entries may be referenced by in-flight
// queries, so wiping a live cache corrupts them.
func (c *Cache) Zeroize() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.ceks {
		aecrypto.Zeroize(e.root)
		e.cell.Zeroize()
	}
	c.ceks = make(map[string]cekEntry)
}

// Open wraps an established transport with driver logic. cache may be nil
// for a private per-connection cache.
func Open(nc net.Conn, cfg Config, cache *Cache) *Conn {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.CEKCacheTTL == 0 {
		cfg.CEKCacheTTL = 2 * time.Hour
	}
	if cache == nil {
		cache = NewCache()
	}
	return &Conn{
		cfg: cfg, tds: tds.NewConn(nc), caches: cache,
		installedCEKs: make(map[string]bool),
		failovers:     cfg.Obs.Counter("driver.failovers"),
		attests:       cfg.Obs.Counter("driver.attestations"),
		reattests:     cfg.Obs.Counter("driver.reattestations"),
		describes:     cfg.Obs.Counter("driver.describe_calls"),
	}
}

// Dial connects over TCP.
func Dial(addr string, cfg Config, cache *Cache) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("driver: dial: %w", err)
	}
	return Open(nc, cfg, cache), nil
}

// DialMulti connects to the first reachable address and arms automatic
// failover across the rest: when the live server dies mid-statement, the
// driver reconnects to the next address (a promoted replica), drops every
// piece of per-session security state — the enclave session secret, the
// session id, the nonce counter, the record of installed CEKs, cached
// describe results — re-runs the full attestation protocol against the new
// enclave, re-installs sealed CEKs, and retries the statement once when the
// retry cannot duplicate effects (see retry for the exactly-once rules).
// Plaintext CEK caches survive (they are client-side property, §4.1);
// everything bound to the dead enclave session does not.
func DialMulti(addrs []string, cfg Config, cache *Cache) (*Conn, error) {
	if len(addrs) == 0 {
		return nil, errors.New("driver: no addresses")
	}
	var lastErr error
	for i, addr := range addrs {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		c := Open(nc, cfg, cache)
		c.addrs = addrs
		c.current = i
		return c, nil
	}
	return nil, fmt.Errorf("driver: dial: no address reachable: %w", lastErr)
}

// failover reconnects to the next reachable address and resets all state
// bound to the previous server's enclave session. Returns false when no
// other endpoint accepts the connection.
func (c *Conn) failover() bool {
	if len(c.addrs) < 2 {
		return false
	}
	c.tds.Close()
	for off := 1; off <= len(c.addrs); off++ {
		i := (c.current + off) % len(c.addrs)
		nc, err := net.Dial("tcp", c.addrs[i])
		if err != nil {
			continue
		}
		c.tds = tds.NewConn(nc)
		c.current = i
		// Security state bound to the dead enclave session: gone. The new
		// server's enclave (fresh after promotion) never saw our secret, our
		// nonces or our CEK installations.
		c.hasSecret = false
		c.secret = [32]byte{}
		c.sid = 0
		c.nonce = 0
		c.dh = nil
		c.installedCEKs = make(map[string]bool)
		// Cached describes embed the dead enclave session id; drop them.
		c.caches.invalidateDescribes()
		c.failedOver = true
		c.Failovers++
		c.failovers.Inc()
		return true
	}
	return false
}

// retryable reports whether an error warrants failover: transport-level
// failures only. A *tds.ServerError means the server processed the request
// and said no — retrying elsewhere would duplicate effects or mask bugs.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var se *tds.ServerError
	return !errors.As(err, &se)
}

// retrySafe reports whether re-executing the statement after failover cannot
// duplicate effects even if the dead primary already applied it: reads, and
// BEGIN (the old server's transaction died with its session).
func retrySafe(query string) bool {
	return StartsWithFold(query, "SELECT") || StartsWithFold(query, "BEGIN")
}

// StartsWithFold reports whether query, leading white space skipped, starts
// with prefix, compared ASCII case-insensitively — how a statement's leading
// keyword is classified without upper-casing (and copying) the whole text.
// prefix is ASCII. A non-ASCII letter never matches an ASCII one, just as
// the server's lexer reads keywords.
func StartsWithFold(query, prefix string) bool {
	q := strings.TrimSpace(query)
	return len(q) >= len(prefix) && strings.EqualFold(q[:len(prefix)], prefix)
}

// Close closes the connection.
func (c *Conn) Close() error { return c.tds.Close() }

// Ping round-trips a no-op request and returns the server's current log
// watermark — on a primary the highest assigned LSN, on a read replica the
// highest applied LSN. The pool's health checker uses it both as a liveness
// probe and as the replica-freshness signal for read routing.
func (c *Conn) Ping() (uint64, error) { return c.tds.Ping() }

// LastLSN returns the log watermark piggybacked on the most recent server
// response (zero before any round trip). After a successful write on a
// primary this is the write's assigned LSN — the client's read-your-writes
// watermark.
func (c *Conn) LastLSN() uint64 { return c.tds.LastLSN() }

// Rows is a decrypted result set.
type Rows struct {
	Columns  []string
	Values   [][]sqltypes.Value
	Affected int
}

// Row returns row i (for tests and examples).
func (r *Rows) Row(i int) []sqltypes.Value { return r.Values[i] }

// Exec runs a parameterized statement with plaintext arguments, applying the
// full transparency pipeline under the connection's retry rules (see retry).
func (c *Conn) Exec(query string, args map[string]sqltypes.Value) (*Rows, error) {
	var rows *Rows
	err := c.retry(func() (applied bool, err error) {
		rows, applied, err = c.execOnce(query, args)
		return applied, err
	})
	if err != nil {
		return nil, err
	}
	c.afterExec(query)
	return rows, nil
}

// retry runs one client request — a statement or a bulk load — through once,
// and decides what a failure means. It is the only place that decision is
// made:
//
//   - The server processed the request and rejected it (*tds.ServerError):
//     nothing was applied. If the request's encryption metadata was served
//     from the shared describe cache the rejection may be staleness — another
//     client changed the schema, or the cached entry carries another
//     connection's enclave session — so the entry is dropped and once runs
//     again against a fresh describe. A rejection for any other reason just
//     fails again, identically.
//   - The transport failed inside an explicit transaction: no retry (the
//     transaction's state died with the server; the application restarts it).
//   - The transport failed before anything with effects reached the wire (the
//     describe/attestation/CEK phase, or a read): with a DialMulti connection
//     the driver fails over to the next address and runs once again.
//   - The transport failed with effects possibly applied: the old primary
//     could have applied and shipped the write before crashing, so re-running
//     it on the promoted replica would double-apply. The driver fails over, so
//     the connection stays usable for the application's own recovery, and
//     returns ErrIndeterminate.
//
// once reports applied = true when a request whose re-execution could
// duplicate effects may have reached the server.
func (c *Conn) retry(once func() (applied bool, err error)) error {
	applied, err := once()
	if err == nil {
		return nil
	}
	if !retryable(err) {
		if c.cachedDescribe == "" {
			return err
		}
		c.caches.dropDescribe(c.cachedDescribe)
		_, err = once()
		return err
	}
	if c.inTxn {
		return err
	}
	if applied {
		c.failover()
		return fmt.Errorf("%w: %v", ErrIndeterminate, err)
	}
	if c.failover() {
		_, err = once()
	}
	return err
}

// afterExec runs post-success bookkeeping: a schema-changing statement
// invalidates every cached describe — the metadata it returned may no longer
// match any statement touching the altered objects.
func (c *Conn) afterExec(query string) {
	if c.cfg.DescribeCache && isSchemaChange(query) {
		c.caches.invalidateDescribes()
	}
}

// isSchemaChange reports statements that can invalidate cached describe
// output: DDL, including ALTER ... ENCRYPTED rewrites.
func isSchemaChange(query string) bool {
	return StartsWithFold(query, "CREATE ") || StartsWithFold(query, "DROP ") ||
		StartsWithFold(query, "ALTER ")
}

// execOnce runs the statement once. applied reports whether a statement with
// effects may have reached the server — the point past which a transport
// failure leaves its outcome unknown (see retry).
func (c *Conn) execOnce(query string, args map[string]sqltypes.Value) (rows *Rows, applied bool, err error) {
	c.ExecCalls++
	c.cachedDescribe = ""
	// Mint the statement's trace context client-side: the server trace for
	// this statement carries our ID, so a client latency sample can be
	// joined to its server-side span breakdown.
	c.lastTrace = trace.NewID()
	if c.collectTraces {
		c.traceLog = append(c.traceLog, c.lastTrace)
	}
	var desc *tds.DescribeResp // nil on a plain connection: nothing to decrypt
	var wire map[string][]byte
	if !c.cfg.AlwaysEncrypted {
		// Plain connection: parameters travel as canonical encodings.
		wire = make(map[string][]byte, len(args))
		for name, v := range args {
			wire[name] = v.Encode()
		}
	} else {
		if desc, err = c.describe(query); err != nil {
			return nil, false, err
		}
		// Enclave preparation: install CEKs and, for DDL, authorization.
		if desc.Desc.NeedsEnclave {
			if err := c.prepareEnclave(query, desc); err != nil {
				return nil, false, err
			}
		}
		if wire, err = c.encryptParams(&desc.Desc, args); err != nil {
			return nil, false, err
		}
	}
	rs, err := c.tds.ExecTrace(query, wire, c.lastTrace)
	if err == nil {
		rows, err = c.decodeResult(rs, desc)
	}
	// Only a failure needs the verdict, so only a failure pays for
	// classifying the statement text.
	return rows, err != nil && !retrySafe(query), err
}

// LastTraceID returns the trace ID minted for the most recent Exec (zero
// before the first statement). On a failover retry it is the retry's ID —
// the ID the server that actually executed the statement traced it under.
func (c *Conn) LastTraceID() trace.ID { return c.lastTrace }

// CollectTraceIDs resets the trace-ID log and turns collection on or off.
// While on, every Exec's minted ID is appended; CollectedTraceIDs returns
// the batch. Off by default — the log costs one append per statement.
func (c *Conn) CollectTraceIDs(on bool) {
	c.collectTraces = on
	c.traceLog = c.traceLog[:0]
}

// CollectedTraceIDs returns the trace IDs minted since the last
// CollectTraceIDs call. The slice is reused; copy it to keep it.
func (c *Conn) CollectedTraceIDs() []trace.ID { return c.traceLog }

// Begin, Commit and Rollback issue transaction-control statements. The
// driver tracks the open-transaction state so failover never silently
// retries half a transaction on a new server.
func (c *Conn) Begin() error {
	_, err := c.Exec("BEGIN TRANSACTION", nil)
	if err == nil {
		c.inTxn = true
	}
	return err
}

func (c *Conn) Commit() error {
	_, err := c.Exec("COMMIT", nil)
	c.inTxn = false
	return err
}

func (c *Conn) Rollback() error {
	_, err := c.Exec("ROLLBACK", nil)
	c.inTxn = false
	return err
}

// describe performs (or serves from cache) the describe round trip,
// including attestation on first enclave use.
func (c *Conn) describe(query string) (*tds.DescribeResp, error) {
	if c.cfg.DescribeCache {
		c.caches.mu.Lock()
		if d, ok := c.caches.describes[query]; ok {
			c.caches.mu.Unlock()
			c.cachedDescribe = query
			return d, nil
		}
		c.caches.mu.Unlock()
	}

	var clientDHPub []byte
	if !c.hasSecret {
		if c.dh == nil {
			dh, err := newDH()
			if err != nil {
				return nil, err
			}
			c.dh = dh
		}
		clientDHPub = c.dh.pubBytes
	}
	c.DescribeCalls++
	c.describes.Inc()
	resp, err := c.tds.Describe(query, clientDHPub)
	if err != nil {
		return nil, err
	}
	if resp.Attestation != nil && c.dh != nil {
		if c.cfg.Policy == nil {
			return nil, ErrNoPolicy
		}
		secret, err := c.cfg.Policy.Verify(resp.Attestation, c.dh.priv)
		if err != nil {
			return nil, fmt.Errorf("driver: attestation failed, refusing to release keys: %w", err)
		}
		c.secret = secret
		c.hasSecret = true
		c.sid = resp.EnclaveSID
		c.dh = nil
		c.attests.Inc()
		if c.failedOver {
			c.reattests.Inc()
		}
		// The shared secret is cached for the connection; later describes
		// skip the attestation protocol (§4.1).
	}
	if resp.Desc.NeedsEnclave && !c.hasSecret {
		return nil, errors.New("driver: enclave required but no attestation was performed")
	}
	if c.cfg.DescribeCache {
		c.caches.mu.Lock()
		c.caches.describes[query] = resp
		c.caches.mu.Unlock()
	}
	return resp, nil
}

// prepareEnclave ships required CEKs (once per session) and authorizes
// enclave DDL by sealing the statement hash with the session secret.
func (c *Conn) prepareEnclave(query string, desc *tds.DescribeResp) error {
	for _, name := range desc.Desc.EnclaveCEKs {
		if c.installedCEKs[name] {
			continue
		}
		root, _, err := c.resolveCEK(name, &desc.Desc, true)
		if err != nil {
			return err
		}
		c.nonce++
		sealed, err := enclave.SealForSession(c.secret, c.nonce, "cek:"+name, root)
		if err != nil {
			return err
		}
		if err := c.tds.InstallCEK(name, c.nonce, sealed); err != nil {
			return err
		}
		c.installedCEKs[name] = true
	}
	// Transparent DDL authorization: the application issued this statement
	// through the driver, which constitutes client intent; the driver signs
	// its hash so the enclave can demand proof from the server (§3.2).
	if isAlterEncryption(query) {
		h := sha256.Sum256([]byte(query))
		c.nonce++
		sealed, err := enclave.SealForSession(c.secret, c.nonce, "authorize-ddl", h[:])
		if err != nil {
			return err
		}
		if err := c.tds.Authorize(c.nonce, sealed); err != nil {
			return err
		}
	}
	return nil
}

func isAlterEncryption(query string) bool {
	if !StartsWithFold(query, "ALTER TABLE") {
		return false
	}
	const clause = "ALTER COLUMN"
	for i := 0; i+len(clause) <= len(query); i++ {
		if strings.EqualFold(query[i:i+len(clause)], clause) {
			return true
		}
	}
	return false
}

// resolveCEK returns the plaintext CEK root and derived cell key, via the
// cache or the key provider. forEnclave additionally checks that the CMK
// authorizes enclave computations before the key is ever sent there.
func (c *Conn) resolveCEK(name string, desc *engine.DescribeResult, forEnclave bool) ([]byte, *aecrypto.CellKey, error) {
	now := c.cfg.Now()
	c.caches.mu.Lock()
	if e, ok := c.caches.ceks[name]; ok && now.Before(e.expires) {
		c.caches.mu.Unlock()
		if forEnclave {
			if err := c.checkEnclaveAuthorized(name, desc); err != nil {
				return nil, nil, err
			}
		}
		return e.root, e.cell, nil
	}
	c.caches.mu.Unlock()

	cekMeta, ok := desc.CEKs[name]
	if !ok {
		return nil, nil, fmt.Errorf("driver: server returned no metadata for CEK %s", name)
	}
	var lastErr error
	for _, val := range cekMeta.Values {
		cmk, ok := desc.CMKs[val.CMKName]
		if !ok {
			lastErr = fmt.Errorf("driver: missing CMK metadata %s", val.CMKName)
			continue
		}
		root, err := c.unwrapViaCMK(&cmk, &val)
		if err != nil {
			lastErr = err
			continue
		}
		if forEnclave && !cmk.EnclaveEnabled {
			return nil, nil, fmt.Errorf("%w: CEK %s via CMK %s", ErrCMKNotEnclaveable, name, cmk.Name)
		}
		cell, err := aecrypto.NewCellKey(root)
		if err != nil {
			return nil, nil, err
		}
		c.caches.mu.Lock()
		c.caches.ceks[name] = cekEntry{root: root, cell: cell, expires: now.Add(c.cfg.CEKCacheTTL)}
		c.caches.mu.Unlock()
		return root, cell, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("driver: CEK %s has no usable values", name)
	}
	return nil, nil, lastErr
}

// checkEnclaveAuthorized re-validates (on the cached path) that the CEK's
// CMK permits enclave use.
func (c *Conn) checkEnclaveAuthorized(name string, desc *engine.DescribeResult) error {
	cekMeta, ok := desc.CEKs[name]
	if !ok {
		return fmt.Errorf("driver: no metadata for CEK %s", name)
	}
	for _, val := range cekMeta.Values {
		if cmk, ok := desc.CMKs[val.CMKName]; ok && cmk.EnclaveEnabled {
			// Verify the enclave flag is genuine before trusting it.
			if err := c.verifyCMK(&cmk); err == nil {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: CEK %s", ErrCMKNotEnclaveable, name)
}

// unwrapViaCMK validates the CMK metadata (trusted path + signature) and
// unwraps the CEK value through the provider.
func (c *Conn) unwrapViaCMK(cmk *keys.CMKMetadata, val *keys.CEKValue) ([]byte, error) {
	if err := c.verifyCMK(cmk); err != nil {
		return nil, err
	}
	provider, err := c.cfg.Providers.Lookup(cmk.ProviderName)
	if err != nil {
		return nil, err
	}
	root, err := provider.Unwrap(cmk.KeyPath, val.EncryptedValue)
	if err != nil {
		return nil, err
	}
	return root, nil
}

// verifyCMK enforces the trusted key path list and the metadata signature.
func (c *Conn) verifyCMK(cmk *keys.CMKMetadata) error {
	if len(c.cfg.TrustedKeyPaths) > 0 {
		trusted := false
		for _, p := range c.cfg.TrustedKeyPaths {
			if p == cmk.KeyPath {
				trusted = true
				break
			}
		}
		if !trusted {
			return fmt.Errorf("%w: %s", ErrUntrustedKeyPath, cmk.KeyPath)
		}
	}
	// The metadata signature exists to bind the ENCLAVE_COMPUTATIONS setting
	// to the key (§2.2). A CMK claiming enclave rights must carry a valid
	// signature; an unsigned non-enclave CMK is acceptable (tampering it to
	// "disabled" can only deny service, never leak keys).
	if !cmk.EnclaveEnabled && len(cmk.Signature) == 0 {
		return nil
	}
	provider, err := c.cfg.Providers.Lookup(cmk.ProviderName)
	if err != nil {
		return err
	}
	pub, err := provider.PublicKey(cmk.KeyPath)
	if err != nil {
		return err
	}
	return cmk.Verify(pub)
}

// encryptParams encodes and (where required) encrypts argument values per
// the describe output. One sealer per column encryption key serves the
// statement's parameters — one key schedule per key, not per cell — and
// every sealer is zeroized, and every encoded plaintext wiped, before return.
func (c *Conn) encryptParams(desc *engine.DescribeResult, args map[string]sqltypes.Value) (map[string][]byte, error) {
	wire := make(map[string][]byte, len(args))
	described := make(map[string]engine.ParamInfo, len(desc.Params))
	for _, pi := range desc.Params {
		described[pi.Name] = pi
	}
	// sealers[i] seals under the key named ceks[i]; a statement names few.
	var ceks []string
	var sealers []*aecrypto.Sealer
	defer func() {
		for _, s := range sealers {
			s.Zeroize()
		}
	}()
	for name, v := range args {
		pi, ok := described[name]
		if !ok {
			// Parameter unused by the statement; send plaintext encoding.
			wire[name] = v.Encode()
			continue
		}
		if pi.Enc.IsPlaintext() {
			for _, forced := range c.cfg.ForceEncrypted {
				if forced == name {
					return nil, fmt.Errorf("%w: @%s", ErrForcedEncryption, name)
				}
			}
			wire[name] = v.Encode()
			continue
		}
		if v.IsNull() {
			wire[name] = nil
			continue
		}
		i := slices.Index(ceks, pi.Enc.CEKName)
		if i < 0 {
			_, cell, err := c.resolveCEK(pi.Enc.CEKName, desc, false)
			if err != nil {
				return nil, err
			}
			sealer, err := cell.NewSealer()
			if err != nil {
				return nil, err
			}
			i, ceks, sealers = len(sealers), append(ceks, pi.Enc.CEKName), append(sealers, sealer)
		}
		typ := aecrypto.Randomized
		if pi.Enc.Scheme == sqltypes.SchemeDeterministic {
			typ = aecrypto.Deterministic
		}
		pt := v.Encode()
		ct, err := sealers[i].Seal(pt, typ)
		aecrypto.Zeroize(pt)
		if err != nil {
			return nil, err
		}
		wire[name] = ct
	}
	return wire, nil
}

// decodeResult decrypts and decodes a result set. desc supplies key
// metadata; nil means no decryption is possible (plain connections return
// ciphertext as VARBINARY, like a non-AE client would).
func (c *Conn) decodeResult(rs *engine.ResultSet, desc *tds.DescribeResp) (*Rows, error) {
	out := &Rows{Affected: rs.Affected}
	for _, col := range rs.Columns {
		out.Columns = append(out.Columns, col.Name)
	}
	// One opener per encrypted column and one plaintext arena serve the
	// whole result set; all are retired, and the arena wiped, on return.
	var openers []*aecrypto.Opener
	var arena []byte
	defer func() {
		for _, op := range openers {
			if op != nil {
				op.Zeroize()
			}
		}
		aecrypto.Zeroize(arena[:cap(arena)])
	}()
	for _, row := range rs.Rows {
		vals := make([]sqltypes.Value, len(row))
		for i, cell := range row {
			meta := rs.Columns[i]
			switch {
			case len(cell) == 0:
				vals[i] = sqltypes.Null()
			case meta.Enc.IsPlaintext():
				v, err := sqltypes.Decode(cell)
				if err != nil {
					return nil, fmt.Errorf("driver: decoding column %s: %w", meta.Name, err)
				}
				vals[i] = v
			case desc == nil:
				vals[i] = sqltypes.Bytes(cell) // no keys: raw ciphertext
			default:
				if openers == nil {
					openers = make([]*aecrypto.Opener, len(rs.Columns))
				}
				if openers[i] == nil {
					_, cellKey, err := c.resolveCEK(meta.Enc.CEKName, &desc.Desc, false)
					if err != nil {
						return nil, err
					}
					if openers[i], err = cellKey.NewOpener(); err != nil {
						return nil, err
					}
				}
				pt, err := openers[i].Open(arena, cell)
				if err != nil {
					return nil, fmt.Errorf("driver: decrypting column %s: %w", meta.Name, err)
				}
				arena = pt
				v, err := sqltypes.Decode(pt)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
		}
		out.Values = append(out.Values, vals)
	}
	return out, nil
}
