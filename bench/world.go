package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
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
	"alwaysencrypted/internal/storage"
	"alwaysencrypted/internal/tds"
	"alwaysencrypted/internal/tpcc"
)

// Every world pins the enclave to two worker threads and leaves every
// simulated-device knob at zero, so the benchmark measures real CPU cost
// only. crossingCost is the one modelled cost kept: tpcc.NewWorld hard-codes
// it, and the hand-built enc_* world matches it so the four workloads share
// one enclave configuration.
const (
	enclaveThreads = 2
	crossingCost   = time.Microsecond
)

// knobs is written into every result so a number is never read without the
// configuration that produced it.
type knobs struct {
	EnclaveThreads     int     `json:"enclave_threads"`
	CrossingCostUS     float64 `json:"crossing_cost_us"`
	EnclaveSpinUS      float64 `json:"enclave_spin_us"`
	EnclaveEvalLatency float64 `json:"enclave_eval_latency_us"`
	LogSyncDelayUS     float64 `json:"log_sync_delay_us"`
	CommitWindowUS     float64 `json:"commit_window_us"`
	VaultLatencyUS     float64 `json:"vault_latency_us"`
	GroupCommit        bool    `json:"group_commit"`
	DescribeCache      bool    `json:"describe_cache"`
	Clients            int     `json:"clients"`
}

func currentKnobs() knobs {
	return knobs{
		EnclaveThreads: enclaveThreads,
		CrossingCostUS: float64(crossingCost) / float64(time.Microsecond),
		EnclaveSpinUS:  float64(enclaveSpin()) / float64(time.Microsecond),
		GroupCommit:    true,
		DescribeCache:  true,
		Clients:        numClients(),
	}
}

// numClients is the closed-loop client count: two, or one on a single-core
// host where a second client would only measure the scheduler.
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// enclaveSpin mirrors tpcc's unexported spinForHost so the hand-built world
// idles its enclave workers exactly as tpcc.NewWorld does.
func enclaveSpin() time.Duration {
	if runtime.NumCPU() > 1 {
		return 20 * time.Microsecond
	}
	return 2 * time.Microsecond
}

// world is one in-process deployment — enclave, engine, TDS server — plus
// what a client needs to reach it. Clients always dial addr, whose listener
// meters the server end of every connection.
type world struct {
	engine *engine.Engine
	encl   *enclave.Enclave
	obs    *obs.Registry
	addr   string
	wire   *wireStats

	providers *keys.ProviderRegistry
	policy    attestation.Policy
	vault     *keys.MemoryVault
	ae        bool // clients use the AE connection string

	server  *tds.Server
	closers []func()
}

func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

// driverConfig is the client configuration every benchmark connection uses:
// describe cache on (the pool default), instruments into the world registry
// so driver.describe_calls is visible to the traced run.
func (w *world) driverConfig() driver.Config {
	return driver.Config{
		AlwaysEncrypted: w.ae,
		Providers:       w.providers,
		Policy:          &w.policy,
		DescribeCache:   true,
		Obs:             w.obs,
	}
}

// dial opens a driver connection over loopback TCP to the metered listener.
func (w *world) dial(cache *driver.Cache) (*driver.Conn, error) {
	return driver.Dial(w.addr, w.driverConfig(), cache)
}

// pipe opens an in-process driver connection (set-up and verification work
// that must not show up in the wire meter).
func (w *world) pipe() *driver.Conn {
	client, server := net.Pipe()
	go w.server.ServeConn(server)
	return driver.Open(client, w.driverConfig(), nil)
}

// serveMetered starts a metered listener on the world's TDS server (a second
// one on a tpcc.World, which keeps its own).
func (w *world) serveMetered() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.wire = &wireStats{}
	w.addr = l.Addr().String()
	go w.server.Serve(&meteredListener{Listener: l, stats: w.wire}) // returns when the listener closes
	w.closers = append(w.closers, func() { l.Close() })
	return nil
}

// tracerPolicy samples every statement into a ring large enough for a whole
// traced pass; nil leaves the world untraced.
func tracerPolicy(traced bool) *trace.Policy {
	if !traced {
		return nil
	}
	return &trace.Policy{SampleRate: 1, Capacity: 1 << 19}
}

// newTPCCWorld builds and loads a TPC-C deployment through tpcc.NewWorld —
// the same assembly cmd/tpccbench uses — and adds the metered listener.
func newTPCCWorld(mode tpcc.Mode, scale tpcc.Scale, traced bool) (*world, error) {
	tw, err := tpcc.NewWorld(tpcc.WorldOptions{
		Mode: mode, Scale: scale, EnclaveThreads: enclaveThreads, CTR: true,
		Trace: tracerPolicy(traced),
	})
	if err != nil {
		return nil, err
	}
	w := &world{
		engine: tw.Engine, encl: tw.Encl, obs: tw.Obs,
		providers: tw.Registry, policy: tw.Policy, vault: tw.Vault,
		ae: mode.AEConnection(), server: tw.Server,
	}
	w.closers = append(w.closers, tw.Close)
	if err := tw.Load(); err != nil {
		w.close()
		return nil, fmt.Errorf("tpcc load: %w", err)
	}
	if err := w.serveMetered(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// encWorldOptions size the hand-built deployment of the enc_* workloads.
type encWorldOptions struct {
	// fileStoreDir, when set, backs the engine with a storage.FileStore in
	// that directory and caps the buffer pool at poolPages frames — the one
	// workload larger than the program's cache.
	fileStoreDir string
	poolPages    int
	traced       bool
}

const (
	encCMK = "BENCH_CMK"
	encCEK = "BENCH_CEK"
)

// newEncWorld assembles a deployment by hand, as tpcc.NewWorld and
// core.StartServer do, because neither exposes the page store or the buffer
// pool size. Keys are provisioned; the schema is the caller's.
func newEncWorld(opt encWorldOptions) (*world, error) {
	reg := obs.New("bench")
	w := &world{obs: reg, ae: true}

	authorKey, err := aecrypto.GenerateRSAKey()
	if err != nil {
		return nil, err
	}
	image, err := enclave.SignImage(authorKey, []byte("bench-es-enclave"), 2)
	if err != nil {
		return nil, err
	}
	w.encl, err = enclave.Load(image, 10, enclave.Options{
		Threads: enclaveThreads, SpinDuration: enclaveSpin(), CrossingCost: crossingCost, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	w.closers = append(w.closers, w.encl.Close)

	hgs, err := attestation.NewHGS()
	if err != nil {
		w.close()
		return nil, err
	}
	tcg := []byte("bench-host-boot")
	host, err := attestation.NewHost(tcg, 10)
	if err != nil {
		w.close()
		return nil, err
	}
	hgs.RegisterHost(tcg)
	w.policy = attestation.Policy{
		HGSKey:            hgs.SigningKey(),
		TrustedAuthorIDs:  []attestation.Measurement{image.AuthorID()},
		MinEnclaveVersion: 2,
		MinHostVersion:    10,
	}

	cfg := engine.Config{Enclave: w.encl, Host: host, HGS: hgs, CTR: true, Obs: reg}
	if opt.traced {
		cfg.Tracer = trace.NewTracer(*tracerPolicy(true))
	}
	if opt.fileStoreDir != "" {
		fs, err := storage.OpenFileStore(filepath.Join(opt.fileStoreDir, "pages.db"))
		if err != nil {
			w.close()
			return nil, err
		}
		w.closers = append(w.closers, func() { fs.Close() })
		cfg.Store = fs
		cfg.BufferPoolPages = opt.poolPages
	}
	w.engine = engine.New(cfg)
	w.server = tds.NewServer(w.engine)
	// Stamp responses with the log watermark, as core.StartServer does: the
	// pool's read-your-writes routing reads it on every statement.
	wal := w.engine.WAL()
	w.server.LSN = func() uint64 { return wal.NextLSN() - 1 }
	w.closers = append(w.closers, w.server.Close)
	if err := w.serveMetered(); err != nil {
		w.close()
		return nil, err
	}

	w.vault = keys.NewMemoryVault(keys.ProviderVault)
	w.providers = keys.NewProviderRegistry()
	w.providers.Register(w.vault)
	if err := w.provisionEncKeys(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// provisionEncKeys creates an enclave-enabled CMK and one CEK and registers
// their metadata through DDL, as a key administrator would.
func (w *world) provisionEncKeys() error {
	path := "https://vault.bench/keys/" + encCMK
	if _, err := w.vault.CreateKey(path); err != nil {
		return err
	}
	cmk, err := keys.ProvisionCMK(w.vault, encCMK, path, true)
	if err != nil {
		return err
	}
	cek, root, err := keys.ProvisionCEK(w.vault, cmk, encCEK)
	if err != nil {
		return err
	}
	// Clients obtain the CEK by unwrapping the catalog's metadata through
	// the vault; the provisioning copy of the root is not needed again.
	aecrypto.Zeroize(root)
	conn := w.pipe()
	defer conn.Close()
	if _, err := conn.Exec(fmt.Sprintf(
		"CREATE COLUMN MASTER KEY %s WITH (KEY_STORE_PROVIDER_NAME = '%s', KEY_PATH = '%s', ENCLAVE_COMPUTATIONS (SIGNATURE = 0x%x))",
		encCMK, keys.ProviderVault, path, cmk.Signature), nil); err != nil {
		return err
	}
	val := cek.PrimaryValue()
	_, err = conn.Exec(fmt.Sprintf(
		"CREATE COLUMN ENCRYPTION KEY %s WITH VALUES (COLUMN_MASTER_KEY = %s, ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x%x, SIGNATURE = 0x%x)",
		encCEK, encCMK, val.EncryptedValue, val.Signature), nil)
	return err
}

// wireStats accumulates what the server end of every client connection saw.
// One request is one Read-after-Write edge: the TDS protocol is strict
// request/response, so that edge is exactly a wire round trip.
type wireStats struct {
	requests atomic.Int64
	bytesIn  atomic.Int64 // client → server
	bytesOut atomic.Int64 // server → client
	// busyNS is the time from a request's first bytes arriving to the last
	// byte of its response being handed to the socket: server-side frame
	// decode, the statement itself, response encode and the write.
	busyNS atomic.Int64
}

type wireSnapshot struct{ requests, bytesIn, bytesOut, busyNS int64 }

func (s *wireStats) snapshot() wireSnapshot {
	return wireSnapshot{s.requests.Load(), s.bytesIn.Load(), s.bytesOut.Load(), s.busyNS.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.requests - b.requests, a.bytesIn - b.bytesIn, a.bytesOut - b.bytesOut, a.busyNS - b.busyNS}
}

type meteredListener struct {
	net.Listener
	stats *wireStats
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, stats: l.stats, idle: true}, nil
}

// meteredConn is used by exactly one server handler goroutine, so its own
// fields need no synchronization; only the shared totals are atomic.
type meteredConn struct {
	net.Conn
	stats *wireStats
	idle  bool      // the next Read that returns data starts a request
	mark  time.Time // busy time is accounted up to here
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.stats.bytesIn.Add(int64(n))
		now := time.Now()
		if c.idle {
			c.idle = false
			c.stats.requests.Add(1)
		} else {
			c.stats.busyNS.Add(int64(now.Sub(c.mark)))
		}
		c.mark = now
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.stats.bytesOut.Add(int64(n))
	now := time.Now()
	c.stats.busyNS.Add(int64(now.Sub(c.mark)))
	c.mark = now
	c.idle = true
	return n, err
}

// workDir creates a fresh directory for one run's files under the checkout,
// never under the system temp dir: the benchmark writes only inside its
// checkout.
func workDir() (string, func(), error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "w")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
