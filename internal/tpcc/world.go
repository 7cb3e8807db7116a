package tpcc

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/tds"
)

// World is a complete deployment: key infrastructure, enclave, engine, TDS
// server on a TCP listener, and the client-side provider registry + policy.
// It corresponds to the full Figure 3 architecture.
type World struct {
	Mode   Mode
	Scale  Scale
	Engine *engine.Engine
	Encl   *enclave.Enclave
	Server *tds.Server
	Addr   string

	// Obs is the shared registry every layer of the world reports into:
	// enclave queue and evaluator, engine statement pipeline, buffer pool,
	// and the per-transaction-type latency histograms below.
	Obs      *obs.Registry
	latHists [5]*obs.Histogram

	Registry *keys.ProviderRegistry
	Policy   attestation.Policy
	Vault    *keys.MemoryVault

	listener   net.Listener
	rowsLoaded int64
}

// RowsLoaded reports how many rows the last Load populated — the
// denominator of the write benchmark's load-rate arm.
func (w *World) RowsLoaded() int64 { return w.rowsLoaded }

// TxTypeNames names the five transaction types, indexed like ByType.
var TxTypeNames = [5]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

// WorldOptions tune the deployment.
type WorldOptions struct {
	Mode           Mode
	Scale          Scale
	EnclaveThreads int  // §5.1 allocates four
	SyncEnclave    bool // ablation: disable the §4.6 queue
	CTR            bool
	// BatchSize is the engine's rows-per-batch for batched expression
	// evaluation; 0 uses engine.DefaultBatchSize. The batch ablation
	// (-experiment batch) sweeps it.
	BatchSize int
	// Trace enables per-statement tracing with the given policy; nil leaves
	// the world untraced. The trace experiment (-experiment trace) uses it
	// for both the overhead comparison and the attribution capture.
	Trace *trace.Policy
	// LogSyncDelay models the commit path's stable-media flush latency; the
	// write benchmark sets it so commit batching has a real cost to
	// amortize. Zero keeps the in-memory log free.
	LogSyncDelay time.Duration
}

// CEKName is the single CEK used for all encrypted columns (§5.3).
const CEKName = "TPCC_CEK"

// CMKName is its wrapping master key.
const CMKName = "TPCC_CMK"

// NewWorld stands the deployment up and creates the schema (no data).
func NewWorld(opt WorldOptions) (*World, error) {
	if opt.Scale.Warehouses == 0 {
		opt.Scale = DefaultScale()
	}
	if opt.EnclaveThreads == 0 {
		opt.EnclaveThreads = 4
	}
	w := &World{Mode: opt.Mode, Scale: opt.Scale, Obs: obs.New("tpcc")}
	for i, name := range TxTypeNames {
		w.latHists[i] = w.Obs.Histogram("tpcc.latency." + name)
	}

	authorKey, err := aecrypto.GenerateRSAKey()
	if err != nil {
		return nil, err
	}
	image, err := enclave.SignImage(authorKey, []byte("tpcc-es-enclave"), 2)
	if err != nil {
		return nil, err
	}
	w.Encl, err = enclave.Load(image, 10, enclave.Options{
		Threads:      opt.EnclaveThreads,
		Synchronous:  opt.SyncEnclave,
		SpinDuration: spinForHost(),
		CrossingCost: time.Microsecond,
		Obs:          w.Obs,
	})
	if err != nil {
		return nil, err
	}

	hgs, err := attestation.NewHGS()
	if err != nil {
		return nil, err
	}
	tcg := []byte("tpcc-host-boot")
	host, err := attestation.NewHost(tcg, 10)
	if err != nil {
		return nil, err
	}
	hgs.RegisterHost(tcg)
	w.Policy = attestation.Policy{
		HGSKey:            hgs.SigningKey(),
		TrustedAuthorIDs:  []attestation.Measurement{image.AuthorID()},
		MinEnclaveVersion: 2,
		MinHostVersion:    10,
	}

	var tracer *trace.Tracer
	if opt.Trace != nil {
		tracer = trace.NewTracer(*opt.Trace)
	}
	w.Engine = engine.New(engine.Config{Enclave: w.Encl, Host: host, HGS: hgs, CTR: opt.CTR, Obs: w.Obs,
		BatchSize: opt.BatchSize, Tracer: tracer, LogSyncDelay: opt.LogSyncDelay})
	w.Server = tds.NewServer(w.Engine)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.listener = l
	w.Addr = l.Addr().String()
	go w.Server.Serve(l)

	w.Vault = keys.NewMemoryVault(keys.ProviderVault)
	w.Registry = keys.NewProviderRegistry()
	w.Registry.Register(w.Vault)

	if err := w.provisionKeys(); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.createSchema(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// Close tears the deployment down.
func (w *World) Close() {
	if w.listener != nil {
		w.listener.Close()
	}
	if w.Server != nil {
		w.Server.Close()
	}
	if w.Encl != nil {
		w.Encl.Close()
	}
}

// DriverConfig builds the client configuration for the world's mode.
func (w *World) DriverConfig(describeCache bool) driver.Config {
	return driver.Config{
		AlwaysEncrypted: w.Mode.AEConnection(),
		Providers:       w.Registry,
		Policy:          &w.Policy,
		DescribeCache:   describeCache,
	}
}

// Connect opens a driver connection over TCP.
func (w *World) Connect(describeCache bool, cache *driver.Cache) (*driver.Conn, error) {
	return driver.Dial(w.Addr, w.DriverConfig(describeCache), cache)
}

// ConnectPipe opens an in-process connection (no TCP) — used by the loader.
func (w *World) ConnectPipe(describeCache bool, cache *driver.Cache) *driver.Conn {
	client, server := net.Pipe()
	go w.Server.ServeConn(server)
	return driver.Open(client, w.DriverConfig(describeCache), cache)
}

// provisionKeys installs the CMK in the vault and registers the metadata
// through DDL, in every mode (unused in plaintext modes but harmless —
// customers often provision keys before turning encryption on).
func (w *World) provisionKeys() error {
	path := "https://vault.tpcc/keys/" + CMKName
	if _, err := w.Vault.CreateKey(path); err != nil {
		return err
	}
	enclaveEnabled := w.Mode.EnclaveEnabled()
	cmk, err := keys.ProvisionCMK(w.Vault, CMKName, path, enclaveEnabled)
	if err != nil {
		return err
	}
	cek, _, err := keys.ProvisionCEK(w.Vault, cmk, CEKName)
	if err != nil {
		return err
	}
	conn := w.ConnectPipe(true, nil)
	defer conn.Close()
	enclClause := ""
	if enclaveEnabled {
		enclClause = fmt.Sprintf(", ENCLAVE_COMPUTATIONS (SIGNATURE = 0x%x)", cmk.Signature)
	}
	if _, err := conn.Exec(fmt.Sprintf(
		"CREATE COLUMN MASTER KEY %s WITH (KEY_STORE_PROVIDER_NAME = '%s', KEY_PATH = '%s'%s)",
		CMKName, keys.ProviderVault, path, enclClause), nil); err != nil {
		return err
	}
	val := cek.PrimaryValue()
	_, err = conn.Exec(fmt.Sprintf(
		"CREATE COLUMN ENCRYPTION KEY %s WITH VALUES (COLUMN_MASTER_KEY = %s, ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x%x, SIGNATURE = 0x%x)",
		CEKName, CMKName, val.EncryptedValue, val.Signature), nil)
	return err
}

func (w *World) createSchema() error {
	conn := w.ConnectPipe(true, nil)
	defer conn.Close()
	for _, ddl := range SchemaDDL(w.Mode, CEKName) {
		if _, err := conn.Exec(ddl, nil); err != nil {
			return fmt.Errorf("tpcc: schema: %w (%s)", err, ddl)
		}
	}
	return nil
}

// spinForHost sizes the §4.6 idle-spin window to the machine: on multi-core
// hosts enclave workers can afford to poll before sleeping, but on a single
// core spinning workers would steal the CPU from the host workers feeding
// them.
func spinForHost() time.Duration {
	if runtime.NumCPU() > 1 {
		return 20 * time.Microsecond
	}
	return 2 * time.Microsecond
}

// nuRandC is the per-run constant of the NURand function (TPC-C §2.1.6).
var nuRandC = rand.New(rand.NewSource(99)).Intn(256)

// nuRand is the TPC-C non-uniform random function over [x, y].
func nuRand(rng *rand.Rand, a, x, y int) int {
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + nuRandC) % (y - x + 1)) + x
}
