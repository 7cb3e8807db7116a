// Package enclave simulates the VBS enclave of Always Encrypted v2 (§2.1,
// §4.2, §4.4, §4.6). The enclave is a hard security boundary inside the
// untrusted server process: its private state (RSA identity key, session
// secrets, installed column encryption keys, decrypted plaintext) lives only
// in unexported fields behind a narrow message-based API, host-side code can
// never read it, and crash dumps (Dump) expose only coarse counters.
//
// The substitution for real VBS: protection comes from the package boundary
// and information-flow discipline rather than a hypervisor, so the code
// paths, the leakage profile and the cost structure (boundary transitions,
// queue+worker threading, decryption of every operand the enclave orders)
// are preserved even though the memory isolation is by construction rather
// than hardware.
//
// Two entry points carry query processing across the boundary, each one
// work-queue submit per call: EvalExpressionBatch (a registered expression
// over a batch of rows) and EqualRange (one B-tree node search of a range
// index, §3.1.2). Neither keeps a decrypted value past the call.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/obs"
)

// Errors surfaced across the enclave boundary. They are deliberately coarse:
// detailed failure state stays inside the enclave (§4.4.1 — we "leverage
// structured exception handling to obtain coarse-grained information").
var (
	ErrBadImage        = errors.New("enclave: image signature invalid")
	ErrNoSession       = errors.New("enclave: unknown session")
	ErrReplayedNonce   = errors.New("enclave: nonce replayed; CEK envelope rejected")
	ErrSealOpenFailed  = errors.New("enclave: sealed envelope failed authentication")
	ErrKeyNotInEnclave = errors.New("enclave: required CEK not installed")
	ErrNoHandle        = errors.New("enclave: unknown expression handle")
	ErrNotAuthorized   = errors.New("enclave: client authorization proof invalid for this conversion")
	ErrFault           = errors.New("enclave: access violation (structured exception); see coarse dump info")
	ErrClosed          = errors.New("enclave: torn down")
)

// Image is the specially compiled enclave dll of §2.1: the binary, its
// version, and a signature by the provisioned author signing key (§4.2 bases
// the client health check on this key plus version numbers).
type Image struct {
	Binary       []byte
	Version      int
	AuthorKeyDER []byte
	Signature    []byte
}

// SignImage builds a signed enclave image.
func SignImage(author *rsa.PrivateKey, binary []byte, version int) (*Image, error) {
	der, err := x509.MarshalPKIXPublicKey(&author.PublicKey)
	if err != nil {
		return nil, err
	}
	im := &Image{Binary: binary, Version: version, AuthorKeyDER: der}
	sig, err := aecrypto.Sign(author, im.signedPayload())
	if err != nil {
		return nil, err
	}
	im.Signature = sig
	return im, nil
}

func (im *Image) signedPayload() []byte {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(im.Version))
	out := make([]byte, 0, len(im.Binary)+len(v)+24)
	out = append(out, "ENCLAVE-IMAGE\x00"...)
	out = append(out, im.Binary...)
	out = append(out, v[:]...)
	return out
}

// Verify checks the image signature against the embedded author key.
func (im *Image) Verify() error {
	pub, err := x509.ParsePKIXPublicKey(im.AuthorKeyDER)
	if err != nil {
		return ErrBadImage
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return ErrBadImage
	}
	if err := aecrypto.VerifySignature(rsaPub, im.signedPayload(), im.Signature); err != nil {
		return ErrBadImage
	}
	return nil
}

// AuthorID is the measurement of the signing key, reported in attestation.
func (im *Image) AuthorID() attestation.Measurement {
	return attestation.Measure(im.AuthorKeyDER)
}

// BinaryHash is the measurement of the enclave binary.
func (im *Image) BinaryHash() attestation.Measurement {
	return attestation.Measure(im.Binary)
}

// Options configure the enclave runtime.
type Options struct {
	// Threads is the number of enclave worker threads (§5.1 allocates four).
	Threads int
	// Synchronous disables the §4.6 queue optimization and calls the enclave
	// as a function, paying two boundary transitions per invocation. Kept
	// for the ablation benchmark.
	Synchronous bool
	// SpinDuration is how long an idle enclave worker polls for work before
	// exiting the enclave and sleeping.
	SpinDuration time.Duration
	// CrossingCost models one security-boundary transition (the hypervisor
	// world switch). Figures in the paper imply single-digit microseconds.
	CrossingCost time.Duration
	// EvalLatency models the service time of one row's expression evaluation
	// inside a real enclave (memory-encryption and paging overheads this
	// functional simulation does not pay). Unlike CrossingCost it sleeps
	// rather than spins: it occupies an enclave worker thread without
	// consuming host CPU, so each enclave's evaluation capacity is bounded at
	// Threads/EvalLatency regardless of host core count. Zero (the default)
	// disables it; benchmarks that measure capacity scale-out across
	// deployments on small hosts opt in.
	EvalLatency time.Duration
	// Obs is the observability registry the enclave reports into (queue
	// waits, crossings, evaluation counts — §4.6 decomposition). nil gets a
	// private registry so independent enclaves never share series. The
	// instruments carry only counts, durations and sizes; the obsleak
	// analyzer statically forbids recording anything plaintext-derived.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.SpinDuration == 0 {
		o.SpinDuration = 50 * time.Microsecond
	}
	if o.CrossingCost == 0 {
		o.CrossingCost = time.Microsecond
	}
	return o
}

// Enclave is the loaded enclave instance. All fields are private state
// shielded from the host; the exported methods are the only entry points,
// mirroring how the host invokes enclave code through defined call gates.
type Enclave struct {
	opts        Options
	image       *Image
	identity    *rsa.PrivateKey
	identityDER []byte
	hostVersion int

	queue *workQueue

	// stateCh funnels all state changes through a single enclave thread
	// (§4.6: "to simplify synchronization issues all state changes ... are
	// handled by a single enclave thread"); readers take mu.RLock.
	stateCh  chan func()
	stateWG  sync.WaitGroup
	mu       sync.RWMutex
	sessions map[uint64]*session
	ceks     map[string]*aecrypto.CellKey
	exprs    map[uint64]*registeredExpr

	nextSession atomic.Uint64
	nextHandle  atomic.Uint64
	closed      atomic.Bool

	// Observability: counters are registry-backed (Dump reads through the
	// registry — one source of truth for crash dumps and snapshots); the
	// pointers are cached here so hot paths never touch registry maps.
	obs       *obs.Registry
	evals     *obs.Counter
	converts  *obs.Counter
	faults    *obs.Counter
	crossings *obs.Counter   // boundary transitions; shared with the work queue
	evalCall  *obs.Histogram // host-observed EvalExpression latency
	evalBatch *obs.Histogram // input slots per evaluated row
	evalRows  *obs.Histogram // rows amortized over one boundary crossing
	// indexCells is the size of the node run one EqualRange call was handed
	// (a size the host chose and already knows, not the cells opened).
	indexCells *obs.Histogram
}

// session is per-shared-secret enclave state.
type session struct {
	id         uint64
	aead       cipher.AEAD
	nonces     RangeSet
	authorized map[[32]byte]bool
}

// registeredExpr is a deserialized expression with a pool of evaluators so
// concurrent enclave threads can evaluate the same handle. opTally is the
// program's static per-opcode instruction mix, pre-resolved to counters so
// each evaluation adds it with a few atomic ops — the Fig. 5 boundary
// traffic decomposition (which opcodes the enclave executes, how often)
// without touching the evaluator's inner loop.
type registeredExpr struct {
	prog *exprsvc.Program
	// Pooled evaluators hold only borrowed CEK aliases: their KeyRing is the
	// enclave's own ceks table, which Close ranges and zeroizes. Recycled
	// evaluators never own key material.
	//aelint:ignore secretretain reason=pooled evaluators hold aliases owned by e.ceks; zeroized in Enclave.Close
	pool    sync.Pool
	opTally []opCount
}

// opCount is one opcode's per-evaluation increment.
type opCount struct {
	counter *obs.Counter
	n       uint64
}

// tallyOps pre-computes the per-opcode counter increments for prog.
func tallyOps(reg *obs.Registry, prog *exprsvc.Program) []opCount {
	counts := make(map[exprsvc.Opcode]uint64)
	for i := range prog.Code {
		counts[prog.Code[i].Op]++
	}
	out := make([]opCount, 0, len(counts))
	for op, n := range counts {
		out = append(out, opCount{counter: reg.Counter("enclave.ops." + op.String()), n: n})
	}
	return out
}

// Load initializes the enclave from a signed image, creating the RSA
// identity keypair (§4.2: "our VBS enclave creates an RSA public/private key
// pair when it is loaded"). hostVersion is reported in attestation.
func Load(image *Image, hostVersion int, opts Options) (*Enclave, error) {
	if err := image.Verify(); err != nil {
		return nil, err
	}
	identity, err := aecrypto.GenerateRSAKey()
	if err != nil {
		return nil, err
	}
	der, err := x509.MarshalPKIXPublicKey(&identity.PublicKey)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	reg := opts.Obs
	if reg == nil {
		reg = obs.New("enclave")
	}
	e := &Enclave{
		opts:        opts,
		image:       image,
		identity:    identity,
		identityDER: der,
		hostVersion: hostVersion,
		stateCh:     make(chan func()),
		sessions:    make(map[uint64]*session),
		ceks:        make(map[string]*aecrypto.CellKey),
		exprs:       make(map[uint64]*registeredExpr),
		obs:         reg,
		evals:       reg.Counter("enclave.evals"),
		converts:    reg.Counter("enclave.converts"),
		faults:      reg.Counter("enclave.faults"),
		crossings:   reg.Counter("enclave.crossings"),
		evalCall:    reg.Histogram("enclave.eval.call_ns"),
		evalBatch:   reg.Histogram("enclave.eval.batch"),
		evalRows:    reg.Histogram("enclave.eval.rows_per_crossing"),
		indexCells:  reg.Histogram("enclave.index.cells_per_call"),
	}
	// Live object counts surface as gauge callbacks: the session/CEK/expr
	// tables stay the single authority and snapshots read them on demand.
	reg.GaugeFunc("enclave.sessions", func() int64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return int64(len(e.sessions))
	})
	reg.GaugeFunc("enclave.ceks", func() int64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return int64(len(e.ceks))
	})
	reg.GaugeFunc("enclave.exprs", func() int64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return int64(len(e.exprs))
	})
	if !opts.Synchronous {
		e.queue = newWorkQueue(opts.Threads, opts.SpinDuration, opts.CrossingCost, reg)
	}
	e.stateWG.Add(1)
	go e.stateThread()
	return e, nil
}

// Close tears the enclave down, zeroing session and key state.
func (e *Enclave) Close() {
	if e.closed.Swap(true) {
		return
	}
	close(e.stateCh)
	e.stateWG.Wait()
	if e.queue != nil {
		e.queue.close()
	}
	e.mu.Lock()
	// stateWG.Wait above joined the state thread and stateCh is closed, so
	// mutate() is unavailable and nothing else can touch this state.
	for _, key := range e.ceks {
		key.Zeroize()
	}
	//aelint:ignore enclavestate reason=state thread joined above; teardown is single-threaded
	e.sessions, e.ceks, e.exprs = map[uint64]*session{}, map[string]*aecrypto.CellKey{}, map[uint64]*registeredExpr{}
	e.mu.Unlock()
}

// stateThread is the single state-mutating enclave thread.
func (e *Enclave) stateThread() {
	defer e.stateWG.Done()
	for fn := range e.stateCh {
		fn()
	}
}

// mutate runs fn on the state thread under the write lock and waits.
func (e *Enclave) mutate(fn func() error) error {
	if e.closed.Load() {
		return ErrClosed
	}
	done := make(chan error, 1)
	defer func() {
		if r := recover(); r != nil {
			// The state channel closed concurrently.
		}
	}()
	e.stateCh <- func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		done <- fn()
	}
	return <-done
}

// NewSession performs the enclave side of the attestation/DH exchange of
// §4.2: generate a DH keypair, derive the shared secret from the client's DH
// public key, create the session, and return the enclave report plus the DH
// signature made with the enclave identity key. The server composes these
// with the HGS health certificate into the attestation info for the client.
func (e *Enclave) NewSession(clientDHPub []byte) (sid uint64, report attestation.Report, dhSig []byte, err error) {
	peer, err := ecdh.P256().NewPublicKey(clientDHPub)
	if err != nil {
		return 0, report, nil, fmt.Errorf("enclave: bad client DH key: %w", err)
	}
	dh, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return 0, report, nil, err
	}
	shared, err := dh.ECDH(peer)
	if err != nil {
		return 0, report, nil, fmt.Errorf("enclave: ECDH failed: %w", err)
	}
	secret := attestation.DeriveSecret(shared)
	aecrypto.Zeroize(shared)
	block, err := aes.NewCipher(secret[:])
	if err != nil {
		return 0, report, nil, err
	}
	aead, err := cipher.NewGCM(block)
	// The GCM instance holds the expanded schedule; the raw secret is no
	// longer needed on any path past this point.
	aecrypto.Zeroize(secret[:])
	if err != nil {
		return 0, report, nil, err
	}
	sid = e.nextSession.Add(1)
	s := &session{id: sid, aead: aead, authorized: make(map[[32]byte]bool)}
	if err := e.mutate(func() error {
		e.sessions[sid] = s
		return nil
	}); err != nil {
		return 0, report, nil, err
	}

	report = attestation.Report{
		AuthorID:       e.image.AuthorID(),
		BinaryHash:     e.image.BinaryHash(),
		EnclaveVersion: e.image.Version,
		HostVersion:    e.hostVersion,
		EnclaveKeyHash: attestation.Measure(e.identityDER),
		EnclaveDHPub:   dh.PublicKey().Bytes(),
	}
	dhSig, err = aecrypto.Sign(e.identity, report.EnclaveDHPub)
	if err != nil {
		return 0, report, nil, err
	}
	return sid, report, dhSig, nil
}

// IdentityKeyDER returns the enclave's public identity key; the server
// forwards it to clients as part of attestation info.
func (e *Enclave) IdentityKeyDER() []byte { return e.identityDER }

// sealNonceBytes builds the 12-byte GCM nonce from the driver counter.
func sealNonceBytes(counter uint64) []byte {
	var n [12]byte
	binary.BigEndian.PutUint64(n[4:], counter)
	return n[:]
}

// SealForSession is the driver-side sealing helper: AES-GCM under the shared
// secret with the driver's counter as nonce and a context label as AAD. It
// lives here (rather than in the driver) so the envelope format has a single
// definition; it uses only the shared secret, which both ends hold.
func SealForSession(secret [32]byte, counter uint64, label string, payload []byte) ([]byte, error) {
	block, err := aes.NewCipher(secret[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return aead.Seal(nil, sealNonceBytes(counter), payload, []byte(label)), nil
}

// openSealed authenticates and opens a driver envelope, enforcing nonce
// freshness. Must run on the state thread (mutates the nonce set).
func (s *session) openSealed(counter uint64, label string, sealed []byte) ([]byte, error) {
	if !s.nonces.Add(counter) {
		return nil, ErrReplayedNonce
	}
	pt, err := s.aead.Open(nil, sealNonceBytes(counter), sealed, []byte(label))
	if err != nil {
		return nil, ErrSealOpenFailed
	}
	return pt, nil
}

// InstallCEK installs a column encryption key shipped over the secure
// channel: the envelope is authenticated with the session secret and carries
// a fresh nonce to defeat TDS replay by the untrusted server (§4.2). Keys
// land in the enclave-global CEK cache used by query processing and by
// recovery's version cleaner (§4.5).
func (e *Enclave) InstallCEK(sid uint64, name string, counter uint64, sealed []byte) error {
	return e.mutate(func() error {
		s, ok := e.sessions[sid]
		if !ok {
			return ErrNoSession
		}
		root, err := s.openSealed(counter, "cek:"+name, sealed)
		if err != nil {
			return err
		}
		key, err := aecrypto.NewCellKey(root)
		aecrypto.Zeroize(root)
		if err != nil {
			return err
		}
		// A reinstall (every session ships the CEKs it needs) must NOT wipe
		// the previous CellKey: in-flight queries may still hold it. Retired
		// keys are wiped at enclave teardown (Close).
		e.ceks[name] = key
		return nil
	})
}

// AuthorizeStatement records a client-authorized DDL statement hash for the
// session (§3.2: the driver signs the query text with the session secret;
// the sealed payload is the SHA-256 hash of the statement text). The enclave
// later demands this authorization before exposing its Encrypt function.
func (e *Enclave) AuthorizeStatement(sid uint64, counter uint64, sealed []byte) error {
	return e.mutate(func() error {
		s, ok := e.sessions[sid]
		if !ok {
			return ErrNoSession
		}
		pt, err := s.openSealed(counter, "authorize-ddl", sealed)
		if err != nil {
			return err
		}
		if len(pt) != sha256.Size {
			return ErrSealOpenFailed
		}
		var h [32]byte
		copy(h[:], pt)
		aecrypto.Zeroize(pt)
		s.authorized[h] = true
		return nil
	})
}

// HasCEK reports whether a CEK is installed. The engine's recovery path uses
// it to decide whether transactions touching encrypted indexes must be
// deferred (§4.5); key presence is observable to the host anyway.
func (e *Enclave) HasCEK(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.ceks[name]
	return ok
}

// enclaveKeyRing adapts the global CEK cache to exprsvc.KeyRing. It is
// unexported: only enclave-internal evaluators hold one.
type enclaveKeyRing Enclave

func (r *enclaveKeyRing) CellKey(name string) (*aecrypto.CellKey, error) {
	e := (*Enclave)(r)
	e.mu.RLock()
	k, ok := e.ceks[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyNotInEnclave, name)
	}
	return k, nil
}

// RegisterExpression deserializes a serialized expression program into
// enclave-private memory and returns a handle for subsequent evaluation —
// the registration pattern of §3. The deep copy severs any aliasing with
// host memory so the host cannot tamper with the object mid-evaluation.
func (e *Enclave) RegisterExpression(serialized []byte) (uint64, error) {
	prog, err := exprsvc.Deserialize(serialized)
	if err != nil {
		return 0, err
	}
	h := e.nextHandle.Add(1)
	re := &registeredExpr{prog: prog, opTally: tallyOps(e.obs, prog)}
	ring := (*enclaveKeyRing)(e)
	re.pool.New = func() any {
		return exprsvc.NewEnclaveEvaluator(prog, ring, false)
	}
	if err := e.mutate(func() error {
		e.exprs[h] = re
		return nil
	}); err != nil {
		return 0, err
	}
	return h, nil
}

// EvalExpression evaluates a registered expression over the given input
// slots — the Eval(expr, inputs, outputs) interface of §4.4.1: a batch of
// one row.
func (e *Enclave) EvalExpression(handle uint64, inputs [][]byte) ([][]byte, error) {
	outs, errs, err := e.EvalExpressionBatch(handle, [][][]byte{inputs})
	if err != nil {
		return nil, err
	}
	return outs[0], errs[0]
}

// EvalExpressionBatch evaluates a registered expression over N rows of
// input slots with ONE enclave transition for the whole batch: in the
// default configuration a single work-queue submit whose dedicated enclave
// worker loops over the rows inside the enclave (§4.6 batching — "the cost
// of enclave transitions ... amortized over larger units of work"); in
// Synchronous mode two boundary transitions paid inline. The boundary
// contract is row-wise: ciphertext in, per-row outputs/errors out, nothing
// else. A non-nil top-level error (closed enclave, unknown handle) loses
// the whole batch.
func (e *Enclave) EvalExpressionBatch(handle uint64, rows [][][]byte) ([][][]byte, []error, error) {
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	e.mu.RLock()
	re, ok := e.exprs[handle]
	e.mu.RUnlock()
	if !ok {
		return nil, nil, ErrNoHandle
	}
	sp := e.evalCall.StartSpan()
	for _, row := range rows {
		e.evalBatch.Observe(int64(len(row)))
	}
	e.evalRows.Observe(int64(len(rows)))
	outs := make([][][]byte, len(rows))
	errs := make([]error, len(rows))
	e.enter(func() {
		e.evalSleep(len(rows))
		e.evalLocked(re, rows, outs, errs)
	})
	sp.End()
	return outs, errs, nil
}

// evalSleep charges the modeled per-row evaluation service time for rows
// evaluations while holding the enclave worker thread. One consolidated
// sleep per submission keeps timer overshoot independent of batch size.
func (e *Enclave) evalSleep(rows int) {
	if e.opts.EvalLatency > 0 && rows > 0 {
		time.Sleep(time.Duration(rows) * e.opts.EvalLatency)
	}
}

// enter runs fn inside the enclave: one queue submit in the default
// configuration, or an inline call paying (and counting) two boundary
// transitions in Synchronous mode. The queue's worker accounts for its own
// crossings.
func (e *Enclave) enter(fn func()) {
	if e.queue != nil {
		e.queue.submit(fn)
		return
	}
	e.crossings.Inc()
	spinFor(e.opts.CrossingCost) // enter
	fn()
	e.crossings.Inc()
	spinFor(e.opts.CrossingCost) // exit
}

// evalLocked runs inside an enclave thread: ONE evaluator, checked out of
// the expression's pool once, serves the whole batch, and the evaluation and
// per-opcode counters are bumped once with the number of rows that evaluated.
// A row that panics gets the coarse ErrFault, mirroring structured exception
// handling — no plaintext detail escapes the boundary — and takes its
// evaluator with it: a faulted evaluator is never pooled, the rows after it
// run on a fresh one.
func (e *Enclave) evalLocked(re *registeredExpr, rows, outs [][][]byte, errs []error) {
	ev := re.pool.Get().(*exprsvc.Evaluator)
	for done := 0; done < len(rows); {
		n, faulted := evalRun(ev, rows[done:], outs[done:], errs[done:])
		done += n
		if faulted {
			e.faults.Inc()
			errs[done] = ErrFault
			done++
			ev = re.pool.New().(*exprsvc.Evaluator)
		}
	}
	re.pool.Put(ev)
	var evaluated uint64
	for _, err := range errs {
		if err == nil {
			evaluated++
		}
	}
	e.evals.Add(evaluated)
	for _, t := range re.opTally {
		t.counter.Add(t.n * evaluated)
	}
}

// evalRun evaluates rows in order on ev as one boundary crossing's worth of
// work, so a ciphertext repeated down a slot is decrypted once and each
// cell key is scheduled once. It returns how many rows it finished; faulted
// reports that the next one panicked. Whatever the evaluator remembered —
// its openers and its plaintext arena included — is forgotten before
// evalRun returns, on every path.
func evalRun(ev *exprsvc.Evaluator, rows, outs [][][]byte, errs []error) (n int, faulted bool) {
	defer func() {
		ev.EndCrossing()
		if r := recover(); r != nil {
			faulted = true
		}
	}()
	ev.BeginCrossing()
	// The evaluator reuses its output buffers across calls, so the outputs
	// are copied out: the row slices into one slab of slots, the bytes into
	// one growing slab of data. A slot keeps pointing into the data slab it
	// was copied to when the slab grows, and is capped so that appending to
	// it cannot reach its neighbour.
	width := len(ev.Program().Outputs)
	slots := make([][]byte, width*len(rows))
	var data []byte
	for ; n < len(rows); n++ {
		res, err := ev.Eval(rows[n])
		if err != nil {
			errs[n] = err
			continue
		}
		out := slots[n*width : (n+1)*width : (n+1)*width]
		for i, b := range res {
			if len(b) == 0 {
				continue // NULL
			}
			if data == nil {
				data = make([]byte, 0, len(b)*width*(len(rows)-n))
			}
			at := len(data)
			data = append(data, b...)
			out[i] = data[at:len(data):len(data)]
		}
		outs[n] = out
	}
	return n, false
}

// Stats is the host-visible operational state of the enclave. It contains
// only counters — Dump deliberately cannot expose keys, secrets or
// plaintext, modelling "enclave memory is automatically stripped from crash
// dumps" (§3.3).
type Stats struct {
	Sessions          int
	InstalledCEKs     int
	RegisteredExprs   int
	Evaluations       uint64
	Conversions       uint64
	Faults            uint64
	QueueTasks        uint64
	WorkerSleeps      uint64
	BoundaryCrossings uint64
}

// Dump returns the crash-dump view of the enclave. It is a compatibility
// shim over the obs registry: every figure is read through the registry's
// instruments (gauge callbacks for live object counts, counters for event
// totals), so crash dumps and metric snapshots can never disagree.
func (e *Enclave) Dump() Stats {
	return Stats{
		Sessions:          int(e.obs.GaugeValue("enclave.sessions")),
		InstalledCEKs:     int(e.obs.GaugeValue("enclave.ceks")),
		RegisteredExprs:   int(e.obs.GaugeValue("enclave.exprs")),
		Evaluations:       e.evals.Value(),
		Conversions:       e.converts.Value(),
		Faults:            e.faults.Value(),
		QueueTasks:        e.obs.Counter("enclave.queue.tasks").Value(),
		WorkerSleeps:      e.obs.Counter("enclave.queue.parks").Value(),
		BoundaryCrossings: e.obs.Counter("enclave.crossings").Value(),
	}
}

// Obs returns the enclave's observability registry (read-side: snapshots).
func (e *Enclave) Obs() *obs.Registry { return e.obs }
