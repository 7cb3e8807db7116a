// Package core is the public façade of the Always Encrypted reproduction:
// it assembles the full Figure 3 deployment — enclave, attestation
// infrastructure (HGS + host), database engine, TDS server — behind a small
// API, and provides the client-side pieces (key provisioning helper, AE
// driver connections) that downstream applications program against.
//
// Quickstart:
//
//	srv, _ := core.StartServer(core.ServerConfig{})
//	defer srv.Close()
//	admin := core.NewKeyAdmin(srv)
//	admin.CreateMasterKey("MyCMK", true)
//	admin.CreateColumnKey("MyCEK", "MyCMK")
//	db, _ := srv.Connect(core.ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()})
//	db.Exec(`CREATE TABLE t (id int PRIMARY KEY, ssn varchar(11) ENCRYPTED WITH (...))`, nil)
package core

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/repl"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/tds"
)

// Value re-exports the SQL value constructors for application code.
type Value = sqltypes.Value

// Convenience constructors.
func Int(v int64) Value       { return sqltypes.Int(v) }
func Float(v float64) Value   { return sqltypes.Float(v) }
func Str(v string) Value      { return sqltypes.Str(v) }
func Bool(v bool) Value       { return sqltypes.Bool(v) }
func Null() Value             { return sqltypes.Null() }
func Datetime(us int64) Value { return sqltypes.Datetime(us) }

// ServerConfig tunes the server deployment.
type ServerConfig struct {
	// Listen is the TCP address; empty means an ephemeral loopback port.
	Listen string
	// EnclaveThreads sets the enclave worker count (default 4, as in §5.1).
	EnclaveThreads int
	// EnclaveEvalLatency opts into the modeled per-row evaluation service
	// time (enclave.Options.EvalLatency). Zero disables it.
	EnclaveEvalLatency time.Duration
	// CTR enables constant-time recovery (§4.5). Default on.
	DisableCTR bool
	// EnclaveVersion stamps the enclave image (clients can set version
	// floors in their attestation policy).
	EnclaveVersion int
	// Obs is the metrics registry the deployment records into; nil means a
	// fresh private registry. The same registry is shared by the enclave,
	// the engine and the buffer pool, and survives enclave restarts.
	Obs *obs.Registry
	// ReplListen, when set, serves the WAL-shipping replication endpoint on
	// this TCP address ("127.0.0.1:0" for an ephemeral port). Empty disables
	// replication.
	ReplListen string
	// Trace, when non-nil, enables per-statement distributed tracing with
	// the given sampling policy. Completed traces land in a bounded ring
	// exposed via Server.Traces (and aedb's -trace-listen endpoint).
	Trace *trace.Policy
	// LogSyncDelay models the commit path's stable-media flush latency
	// (engine.Config.LogSyncDelay). Zero keeps the in-memory log free.
	LogSyncDelay time.Duration
}

// Server is a running deployment.
type Server struct {
	Engine  *engine.Engine
	Enclave *enclave.Enclave
	TDS     *tds.Server
	// Repl is the replication endpoint (nil unless ServerConfig.ReplListen
	// was set or this is a replica deployment's primary half).
	Repl *repl.Primary

	addr         string
	listener     net.Listener
	replAddr     string
	replListener net.Listener
	policy       attestation.Policy
	image        *enclave.Image
	hgs          *attestation.HGS
	options      enclave.Options
}

// StartServer boots the enclave, registers the host with a fresh HGS, and
// serves the TDS protocol on a TCP listener.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.EnclaveThreads == 0 {
		cfg.EnclaveThreads = 4
	}
	if cfg.EnclaveVersion == 0 {
		cfg.EnclaveVersion = 2
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}

	authorKey, err := aecrypto.GenerateRSAKey()
	if err != nil {
		return nil, err
	}
	image, err := enclave.SignImage(authorKey, []byte("always-encrypted-es-enclave"), cfg.EnclaveVersion)
	if err != nil {
		return nil, err
	}
	spin := 20 * time.Microsecond
	if runtime.NumCPU() == 1 {
		// A spinning enclave worker on a single-core host steals the CPU
		// from the host workers feeding it (§4.6's spin assumes a core to
		// pin the enclave thread to).
		spin = 2 * time.Microsecond
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New("core")
	}
	opts := enclave.Options{
		Threads:      cfg.EnclaveThreads,
		SpinDuration: spin,
		CrossingCost: time.Microsecond,
		EvalLatency:  cfg.EnclaveEvalLatency,
		Obs:          reg,
	}
	encl, err := enclave.Load(image, 10, opts)
	if err != nil {
		return nil, err
	}

	hgs, err := attestation.NewHGS()
	if err != nil {
		encl.Close()
		return nil, err
	}
	tcg := []byte("core-server-boot-measurement")
	host, err := attestation.NewHost(tcg, 10)
	if err != nil {
		encl.Close()
		return nil, err
	}
	hgs.RegisterHost(tcg)

	var tracer *trace.Tracer
	if cfg.Trace != nil {
		tracer = trace.NewTracer(*cfg.Trace)
	}
	eng := engine.New(engine.Config{
		Enclave: encl, Host: host, HGS: hgs, CTR: !cfg.DisableCTR, Obs: reg,
		Tracer: tracer, LogSyncDelay: cfg.LogSyncDelay,
	})
	srv := &Server{
		Engine:  eng,
		Enclave: encl,
		TDS:     tds.NewServer(eng),
		image:   image,
		hgs:     hgs,
		options: opts,
		policy: attestation.Policy{
			HGSKey:            hgs.SigningKey(),
			TrustedAuthorIDs:  []attestation.Measurement{image.AuthorID()},
			MinEnclaveVersion: cfg.EnclaveVersion,
			MinHostVersion:    10,
		},
	}
	l, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		encl.Close()
		return nil, err
	}
	srv.listener = l
	srv.addr = l.Addr().String()
	// Stamp every TDS response with the primary's log watermark: the highest
	// assigned LSN. Clients use it as their read-your-writes bound when
	// routing reads to replicas. Must be set before Serve starts handler
	// goroutines (the field is read without synchronization).
	srv.TDS.LSN = func() uint64 { return eng.WAL().NextLSN() - 1 }
	go srv.TDS.Serve(l)
	if cfg.ReplListen != "" {
		if err := srv.ServeReplication(cfg.ReplListen); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// ServeReplication opens the WAL-shipping endpoint on addr. Replicas connect
// here (core.StartReplicaServer, aedb -replica-of).
func (s *Server) ServeReplication(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Repl = repl.NewPrimary(s.Engine.WAL(), s.options.Obs)
	s.replListener = l
	s.replAddr = l.Addr().String()
	go s.Repl.Serve(l)
	return nil
}

// ReplAddr is the replication endpoint's TCP address ("" if not serving).
func (s *Server) ReplAddr() string { return s.replAddr }

// Addr is the server's TCP address.
func (s *Server) Addr() string { return s.addr }

// Policy returns the attestation trust anchors clients should use. In a
// real deployment the HGS key and author ID would be distributed out of
// band; here the helper stands in for that channel.
func (s *Server) Policy() attestation.Policy { return s.policy }

// Obs returns the deployment's shared metrics registry: enclave, engine and
// buffer-pool instruments all record here, across enclave restarts.
func (s *Server) Obs() *obs.Registry { return s.options.Obs }

// Traces returns the completed-trace ring (nil when tracing is disabled).
func (s *Server) Traces() *trace.Store { return s.Engine.Tracer().Store() }

// Close shuts the deployment down.
func (s *Server) Close() {
	if s.listener != nil {
		s.listener.Close()
	}
	if s.replListener != nil {
		s.replListener.Close()
	}
	if s.Repl != nil {
		s.Repl.Close()
	}
	s.TDS.Close()
	s.Enclave.Close()
}

// RestartEnclave simulates a process restart of the enclave: a fresh
// instance loads from the same signed image, with no installed CEKs and a
// new identity keypair. Attestation keeps working (same author ID and
// versions); clients must re-attest and re-install keys. Used together with
// Engine.Crash/Recover to exercise the §4.5 recovery story.
func (s *Server) RestartEnclave() error {
	fresh, err := enclave.Load(s.image, 10, s.options)
	if err != nil {
		return err
	}
	old := s.Enclave
	s.Enclave = fresh
	s.Engine.ReplaceEnclave(fresh)
	// Cached plans hold expression handles compiled inside the old enclave;
	// running one against the fresh instance would fail with ErrClosed.
	s.Engine.InvalidatePlans()
	old.Close()
	return nil
}

// Trust bundles the attestation anchors a replica must share with its
// primary so that a client's existing Policy verifies the replica's enclave
// after failover: the same signed enclave image (same author ID) and the
// same HGS (same signing key). In a real deployment these are distributed
// out of band; in-process they are handed over directly.
type Trust struct {
	Image *enclave.Image
	HGS   *attestation.HGS
}

// Trust returns this deployment's anchors for provisioning replicas.
func (s *Server) Trust() Trust { return Trust{Image: s.image, HGS: s.hgs} }

// ReplicaConfig configures a read-replica deployment.
type ReplicaConfig struct {
	// Primary is the primary's replication endpoint (Server.ReplAddr()).
	Primary string
	// Listen is the replica's own TDS address for read traffic; empty means
	// an ephemeral loopback port.
	Listen string
	// ReplicaID names the replica in the primary's stream table; empty
	// derives one from the connection.
	ReplicaID string
	// Trust carries the primary's attestation anchors. nil generates fresh
	// ones (cross-process replicas): replication still works, but clients
	// must fetch the replica's own Policy before attesting post-failover.
	Trust *Trust
	// EnclaveThreads, EnclaveEvalLatency, Obs, Trace as in ServerConfig.
	// With tracing enabled, redo batches applied from the primary produce
	// traces whose Link field carries the originating statement's trace ID.
	EnclaveThreads     int
	EnclaveEvalLatency time.Duration
	Obs                *obs.Registry
	Trace              *trace.Policy
}

// ReplicaServer is a running read replica: a full deployment (enclave, host,
// engine, TDS front door) whose engine is fed by a redo loop instead of
// writers, serving read-only traffic — encrypted cells come back as
// ciphertext, since the replica's enclave holds no CEKs. Promote turns it
// into a primary.
type ReplicaServer struct {
	*Server
	Replication *repl.Replica

	promoted    atomic.Bool
	cleanerStop func()
	failoverNs  *obs.Histogram
	promotions  *obs.Counter
}

// StartReplicaServer boots a replica deployment and starts its redo loop
// against the primary.
func StartReplicaServer(cfg ReplicaConfig) (*ReplicaServer, error) {
	if cfg.EnclaveThreads == 0 {
		cfg.EnclaveThreads = 4
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New("replica")
	}

	trust := cfg.Trust
	if trust == nil {
		// Standalone anchors: a cross-process replica cannot share in-memory
		// trust. Attestation against this replica needs its own Policy().
		authorKey, err := aecrypto.GenerateRSAKey()
		if err != nil {
			return nil, err
		}
		image, err := enclave.SignImage(authorKey, []byte("always-encrypted-es-enclave"), 2)
		if err != nil {
			return nil, err
		}
		hgs, err := attestation.NewHGS()
		if err != nil {
			return nil, err
		}
		trust = &Trust{Image: image, HGS: hgs}
	}

	spin := 20 * time.Microsecond
	if runtime.NumCPU() == 1 {
		spin = 2 * time.Microsecond
	}
	opts := enclave.Options{
		Threads:      cfg.EnclaveThreads,
		SpinDuration: spin,
		CrossingCost: time.Microsecond,
		EvalLatency:  cfg.EnclaveEvalLatency,
		Obs:          reg,
	}
	encl, err := enclave.Load(trust.Image, 10, opts)
	if err != nil {
		return nil, err
	}
	// The replica host attests with its own boot measurement, registered
	// with the shared HGS: clients trust the HGS key, not the specific host.
	tcg := []byte("core-replica-boot-measurement")
	host, err := attestation.NewHost(tcg, 10)
	if err != nil {
		encl.Close()
		return nil, err
	}
	trust.HGS.RegisterHost(tcg)

	var tracer *trace.Tracer
	if cfg.Trace != nil {
		tracer = trace.NewTracer(*cfg.Trace)
	}
	eng := engine.New(engine.Config{
		Enclave: encl, Host: host, HGS: trust.HGS, CTR: true, Obs: reg,
		Tracer: tracer,
	})
	srv := &Server{
		Engine:  eng,
		Enclave: encl,
		TDS:     tds.NewServer(eng),
		image:   trust.Image,
		hgs:     trust.HGS,
		options: opts,
		policy: attestation.Policy{
			HGSKey:            trust.HGS.SigningKey(),
			TrustedAuthorIDs:  []attestation.Measurement{trust.Image.AuthorID()},
			MinEnclaveVersion: trust.Image.Version,
			MinHostVersion:    10,
		},
	}
	l, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		encl.Close()
		return nil, err
	}
	srv.listener = l
	srv.addr = l.Addr().String()

	// Start replication before the TDS front door: the watermark closure
	// below reads the redo applier, so it must exist before any handler
	// goroutine can call it.
	rep, err := repl.StartReplica(repl.ReplicaConfig{
		PrimaryAddr: cfg.Primary,
		ReplicaID:   cfg.ReplicaID,
		Engine:      eng,
		Obs:         reg,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	rs := &ReplicaServer{
		Server:      srv,
		Replication: rep,
		failoverNs:  reg.Histogram("repl.failover_ns"),
		promotions:  reg.Counter("repl.promotions"),
	}
	// A replica advertises its highest *applied* LSN — not the mirrored WAL
	// watermark: records shipped but not yet redone are invisible to reads,
	// so advertising them would let a client read stale state while
	// believing its read-your-writes bound was met.
	srv.TDS.LSN = rs.AppliedLSN
	go srv.TDS.Serve(l)
	return rs, nil
}

// AppliedLSN is the replica's read-freshness watermark: the highest LSN the
// redo loop has applied (everything at or below it is visible to reads).
// After promotion the engine takes writes directly, so the watermark becomes
// the WAL's own high-water mark.
func (rs *ReplicaServer) AppliedLSN() uint64 {
	if rs.promoted.Load() {
		return rs.Engine.WAL().NextLSN() - 1
	}
	return rs.Replication.AppliedLSN()
}

// Promote turns the replica into a primary: the redo loop is drained and
// stopped, queued-but-never-applied encrypted-index work of in-flight
// transactions is dropped, crash recovery rolls those transactions back
// (deferring encrypted-index undo exactly as §4.5 does after a crash), a
// fresh enclave is loaded, and the engine starts accepting writes. Clients
// reconnect, re-attest against the fresh enclave and re-install CEKs —
// which lets the background cleaner resolve whatever recovery deferred.
func (rs *ReplicaServer) Promote() error {
	if !rs.promoted.CompareAndSwap(false, true) {
		return nil
	}
	start := time.Now()
	rs.Replication.Stop()
	rs.Replication.Applier().DropInflightPending()
	rs.Engine.Recover()
	if err := rs.RestartEnclave(); err != nil {
		return err
	}
	rs.Engine.SetReadOnly(false)
	// Deferred redo transactions (encrypted-index work queued for lack of
	// keys) resolve in the background once a client re-attests and ships
	// CEKs to the fresh enclave.
	rs.cleanerStop = rs.Engine.StartCleaner(20 * time.Millisecond)
	rs.failoverNs.Observe(time.Since(start).Nanoseconds())
	rs.promotions.Inc()
	return nil
}

// Promoted reports whether Promote has run.
func (rs *ReplicaServer) Promoted() bool { return rs.promoted.Load() }

// Close stops the redo loop (if still running), the cleaner and the
// deployment.
func (rs *ReplicaServer) Close() {
	rs.Replication.Stop()
	if rs.cleanerStop != nil {
		rs.cleanerStop()
	}
	rs.Server.Close()
}

// ClientConfig configures application connections.
type ClientConfig struct {
	// AlwaysEncrypted turns the AE connection-string property on.
	AlwaysEncrypted bool
	// Providers resolves CMKs; use KeyAdmin.Registry() or your own.
	Providers *keys.ProviderRegistry
	// TrustedKeyPaths restricts acceptable CMK paths (§4.1).
	TrustedKeyPaths []string
	// DescribeCache enables client-side caching of describe results.
	DescribeCache bool
	// SharedCache is the process-wide CEK/describe cache; nil = private.
	SharedCache *driver.Cache
}

// DB is an application connection.
type DB struct {
	Conn *driver.Conn
}

// Connect opens an application connection to the server.
func (s *Server) Connect(cfg ClientConfig) (*DB, error) {
	policy := s.policy
	dcfg := driver.Config{
		AlwaysEncrypted: cfg.AlwaysEncrypted,
		Providers:       cfg.Providers,
		TrustedKeyPaths: cfg.TrustedKeyPaths,
		Policy:          &policy,
		DescribeCache:   cfg.DescribeCache,
	}
	conn, err := driver.Dial(s.addr, dcfg, cfg.SharedCache)
	if err != nil {
		return nil, err
	}
	return &DB{Conn: conn}, nil
}

// ConnectAddrs opens an application connection with automatic failover
// across several server addresses (primary first, replicas after). The
// policy must cover every listed server — which shared-Trust replicas
// satisfy by construction.
func ConnectAddrs(addrs []string, policy attestation.Policy, cfg ClientConfig, reg *obs.Registry) (*DB, error) {
	dcfg := driver.Config{
		AlwaysEncrypted: cfg.AlwaysEncrypted,
		Providers:       cfg.Providers,
		TrustedKeyPaths: cfg.TrustedKeyPaths,
		Policy:          &policy,
		DescribeCache:   cfg.DescribeCache,
		Obs:             reg,
	}
	conn, err := driver.DialMulti(addrs, dcfg, cfg.SharedCache)
	if err != nil {
		return nil, err
	}
	return &DB{Conn: conn}, nil
}

// Exec runs one parameterized statement.
func (db *DB) Exec(query string, args map[string]Value) (*driver.Rows, error) {
	return db.Conn.Exec(query, args)
}

// Begin/Commit/Rollback control transactions.
func (db *DB) Begin() error    { return db.Conn.Begin() }
func (db *DB) Commit() error   { return db.Conn.Commit() }
func (db *DB) Rollback() error { return db.Conn.Rollback() }

// Close closes the connection.
func (db *DB) Close() error { return db.Conn.Close() }

// KeyAdmin automates the client-side key provisioning of §2.4.1: it owns a
// key provider (an in-memory vault standing in for Azure Key Vault), creates
// CMKs and CEKs, and registers their metadata with the server through DDL.
type KeyAdmin struct {
	server   *Server
	vault    *keys.MemoryVault
	registry *keys.ProviderRegistry
	paths    map[string]string
}

// NewKeyAdmin creates a key administration helper bound to a server.
func NewKeyAdmin(s *Server) *KeyAdmin {
	vault := keys.NewMemoryVault(keys.ProviderVault)
	reg := keys.NewProviderRegistry()
	reg.Register(vault)
	return &KeyAdmin{server: s, vault: vault, registry: reg, paths: map[string]string{}}
}

// Registry returns the provider registry for ClientConfig.Providers.
func (a *KeyAdmin) Registry() *keys.ProviderRegistry { return a.registry }

// Vault exposes the underlying key store (tests, latency injection).
func (a *KeyAdmin) Vault() *keys.MemoryVault { return a.vault }

// KeyPath returns the provider path of a provisioned CMK.
func (a *KeyAdmin) KeyPath(cmkName string) string { return a.paths[cmkName] }

// CreateMasterKey generates a CMK in the vault and registers its (signed)
// metadata with the server.
func (a *KeyAdmin) CreateMasterKey(name string, enclaveEnabled bool) error {
	path := "https://vault.local/keys/" + name
	if _, err := a.vault.CreateKey(path); err != nil {
		return err
	}
	cmk, err := keys.ProvisionCMK(a.vault, name, path, enclaveEnabled)
	if err != nil {
		return err
	}
	a.paths[name] = path
	conn, err := a.adminConn()
	if err != nil {
		return err
	}
	defer conn.Close()
	enclClause := ""
	if enclaveEnabled {
		enclClause = fmt.Sprintf(", ENCLAVE_COMPUTATIONS (SIGNATURE = 0x%x)", cmk.Signature)
	}
	_, err = conn.Exec(fmt.Sprintf(
		"CREATE COLUMN MASTER KEY %s WITH (KEY_STORE_PROVIDER_NAME = '%s', KEY_PATH = '%s'%s)",
		name, keys.ProviderVault, path, enclClause), nil)
	return err
}

// CreateColumnKey generates a CEK, wraps it under the named CMK and
// registers the metadata with the server. The plaintext never leaves the
// client side.
func (a *KeyAdmin) CreateColumnKey(name, cmkName string) error {
	path, ok := a.paths[cmkName]
	if !ok {
		return fmt.Errorf("core: unknown CMK %s", cmkName)
	}
	cmkMeta, err := keys.ProvisionCMK(a.vault, cmkName, path, true)
	if err != nil {
		return err
	}
	// Reuse the stored enclave setting: re-derive from catalog if present.
	if stored, err := a.server.Engine.Catalog().CMK(cmkName); err == nil {
		cmkMeta.EnclaveEnabled = stored.EnclaveEnabled
	}
	cek, _, err := keys.ProvisionCEK(a.vault, cmkMeta, name)
	if err != nil {
		return err
	}
	conn, err := a.adminConn()
	if err != nil {
		return err
	}
	defer conn.Close()
	val := cek.PrimaryValue()
	_, err = conn.Exec(fmt.Sprintf(
		"CREATE COLUMN ENCRYPTION KEY %s WITH VALUES (COLUMN_MASTER_KEY = %s, ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x%x, SIGNATURE = 0x%x)",
		name, cmkName, val.EncryptedValue, val.Signature), nil)
	return err
}

// RotateMasterKey performs a CMK rotation (§2.4.2): the CEK gains a second
// wrapping under the new CMK, then the old wrapping is dropped. Data is not
// re-encrypted.
func (a *KeyAdmin) RotateMasterKey(cekName, oldCMK, newCMK string) error {
	cat := a.server.Engine.Catalog()
	cekMeta, err := cat.CEK(cekName)
	if err != nil {
		return err
	}
	oldMeta, err := cat.CMK(oldCMK)
	if err != nil {
		return err
	}
	newMeta, err := cat.CMK(newCMK)
	if err != nil {
		return err
	}
	// Begin: dual-wrap window.
	rotated := *cekMeta
	rotated.Values = append([]keys.CEKValue(nil), cekMeta.Values...)
	if err := keys.BeginCMKRotation(a.vault, &rotated, oldMeta, newMeta); err != nil {
		return err
	}
	cat.ReplaceCEK(&rotated)
	// Complete: drop the old wrapping.
	if err := keys.CompleteCMKRotation(&rotated, newCMK); err != nil {
		return err
	}
	cat.ReplaceCEK(&rotated)
	return nil
}

func (a *KeyAdmin) adminConn() (*driver.Conn, error) {
	return driver.Dial(a.server.addr, driver.Config{Providers: a.registry}, nil)
}

// ClientSideInitialEncryption is the AEv1 tooling path of §2.4.2: it
// encrypts an existing column by round-tripping every cell through this
// client-side process (which holds the keys) — the slow path the paper's
// customers found impractical for terabyte databases and that AEv2's
// enclave-side ALTER TABLE replaces. It works without any enclave, e.g.
// for DET columns under enclave-disabled CMKs.
func (a *KeyAdmin) ClientSideInitialEncryption(table, column, cekName string, scheme sqltypes.EncScheme) error {
	cek, err := a.server.Engine.Catalog().CEK(cekName)
	if err != nil {
		return err
	}
	val := cek.PrimaryValue()
	if val == nil {
		return fmt.Errorf("core: CEK %s has no values", cekName)
	}
	cmk, err := a.server.Engine.Catalog().CMK(val.CMKName)
	if err != nil {
		return err
	}
	root, err := a.vault.Unwrap(cmk.KeyPath, val.EncryptedValue)
	if err != nil {
		return err
	}
	cell, err := aecrypto.NewCellKey(root)
	if err != nil {
		return err
	}
	encType := aecrypto.Randomized
	if scheme == sqltypes.SchemeDeterministic {
		encType = aecrypto.Deterministic
	}
	to := sqltypes.EncType{Scheme: scheme, CEKName: cek.Name, EnclaveEnabled: cmk.EnclaveEnabled}
	return a.server.Engine.AlterColumnClientSide(table, column, to, func(old []byte) ([]byte, error) {
		// The "round trip": plaintext encoding in, ciphertext out, computed
		// on the client with the client's keys.
		return cell.Encrypt(old, encType)
	})
}
