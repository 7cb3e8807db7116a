package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// Config wires the engine to its substrates.
type Config struct {
	// Enclave is the loaded enclave; nil runs the engine enclave-less (AEv1
	// semantics: DET equality only).
	Enclave *enclave.Enclave
	// Host and HGS supply attestation material when clients request it.
	Host *attestation.Host
	HGS  *attestation.HGS
	// CTR enables constant-time recovery semantics (§4.5).
	CTR bool
	// Store is the page store; nil defaults to an in-memory store.
	Store storage.PageStore
	// BufferPoolPages caps the buffer pool; 0 defaults to 4096 frames.
	BufferPoolPages int
	// Obs is the metrics registry the engine (and its buffer pool) report
	// into; nil creates a private one. Pass the same registry to
	// enclave.Options.Obs to get one snapshot across the trust boundary.
	Obs *obs.Registry
	// BatchSize is the executor's rows-per-batch for batched filter
	// evaluation and the ALTER…ENCRYPTED rewrite loop — the §4.6
	// crossing-amortization factor. <= 0 defaults to DefaultBatchSize.
	BatchSize int
	// Tracer records per-statement traces (lifecycle spans, enclave
	// crossings, WAL waits). nil disables tracing: every trace call site
	// degrades to a nil-receiver no-op.
	Tracer *trace.Tracer
	// LockTimeout overrides the lock manager's wait bound (tests drive
	// write-write conflicts with short timeouts); zero keeps the default.
	LockTimeout time.Duration
	// LogSyncDelay models the stable-media flush the commit path must wait
	// out (storage.WAL.SyncDelay). Zero — the default — keeps the in-memory
	// log free; the write benchmark sets it so commit batching has a real
	// per-round cost to amortize.
	LogSyncDelay time.Duration
}

// Engine is the database engine instance — the untrusted server process.
type Engine struct {
	cfg      Config
	catalog  *Catalog
	pool     *storage.BufferPool
	wal      *storage.WAL
	locks    *storage.LockManager
	versions *storage.VersionStore

	planMu sync.Mutex
	plans  map[string]*Plan

	txnMu    sync.Mutex
	nextTxn  uint64
	active   map[uint64]*Txn
	deferred map[uint64]*deferredTxn
	deferSeq uint64 // orders deferred registrations for in-order resolution

	nextSession atomic.Uint64

	// readOnly marks a replica engine: only SELECTs are admitted until the
	// replica is promoted (mutations would fork its log from the primary's).
	readOnly atomic.Bool

	// Registry-backed instruments; pointers cached at construction so the
	// per-row hot paths never touch the registry's lock.
	obs                 *obs.Registry
	scans, seeks, execs *obs.Counter
	spanLex             *obs.Histogram // statement lifecycle decomposition
	spanParse           *obs.Histogram
	spanBind            *obs.Histogram
	spanPlan            *obs.Histogram
	spanExec            *obs.Histogram

	// batch is the normalized Config.BatchSize.
	batch int

	// tracer mints per-statement traces; nil when tracing is disabled.
	tracer *trace.Tracer
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Store == nil {
		cfg.Store = storage.NewMemStore()
	}
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 4096
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New("engine")
	}
	locks := storage.NewLockManager()
	if cfg.LockTimeout > 0 {
		locks.Timeout = cfg.LockTimeout
	}
	versions := storage.NewVersionStore()
	reg.GaugeFunc("storage.version.retained_bytes", versions.RetainedBytes)
	wal := storage.NewWAL()
	wal.SyncDelay = cfg.LogSyncDelay
	return &Engine{
		cfg:       cfg,
		catalog:   NewCatalog(),
		pool:      storage.NewBufferPoolObs(cfg.Store, cfg.BufferPoolPages, reg),
		wal:       wal,
		locks:     locks,
		versions:  versions,
		plans:     make(map[string]*Plan),
		nextTxn:   1,
		active:    make(map[uint64]*Txn),
		deferred:  make(map[uint64]*deferredTxn),
		obs:       reg,
		scans:     reg.Counter("engine.scans"),
		seeks:     reg.Counter("engine.seeks"),
		execs:     reg.Counter("engine.execs"),
		spanLex:   reg.Histogram("engine.stmt.lex_ns"),
		spanParse: reg.Histogram("engine.stmt.parse_ns"),
		spanBind:  reg.Histogram("engine.stmt.bind_ns"),
		spanPlan:  reg.Histogram("engine.stmt.plan_ns"),
		spanExec:  reg.Histogram("engine.stmt.exec_ns"),
		batch:     cfg.BatchSize,
		tracer:    cfg.Tracer,
	}
}

// Obs returns the registry the engine reports into.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// Tracer returns the statement tracer, or nil when tracing is disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Catalog exposes the catalog (tools, tests).
func (e *Engine) Catalog() *Catalog { return e.catalog }

// WAL exposes the log (recovery tests, truncation policies).
func (e *Engine) WAL() *storage.WAL { return e.wal }

// Enclave returns the configured enclave, or nil.
func (e *Engine) Enclave() *enclave.Enclave { return e.cfg.Enclave }

// SetReadOnly toggles replica mode: mutating statements are rejected with
// ErrReadOnly. Promotion clears it.
func (e *Engine) SetReadOnly(v bool) { e.readOnly.Store(v) }

// ReadOnly reports whether the engine is serving as a read replica.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// Stats reports engine operation counters. It is a compatibility shim over
// the obs registry, which is the single source of truth.
func (e *Engine) Stats() (scans, seeks, execs uint64) {
	return e.scans.Value(), e.seeks.Value(), e.execs.Value()
}

// Session is a server-side connection context. Sessions are not safe for
// concurrent use (one session per client connection, as in TDS).
type Session struct {
	engine     *Engine
	id         uint64
	txn        *Txn // explicit transaction, if open
	EnclaveSID uint64

	// traceID is the client-supplied trace context for the NEXT statement
	// (set by the TDS layer before Execute, consumed by it).
	traceID trace.ID
	// act is the statement currently being traced on this session; nil
	// outside Execute or when tracing is disabled.
	act *trace.Active
}

// SetTraceID installs the client's trace context for the next statement.
// A zero ID is fine: the tracer mints a server-side one so statements from
// old clients still trace.
func (s *Session) SetTraceID(id trace.ID) { s.traceID = id }

// NewSession opens a server session.
func (e *Engine) NewSession() *Session {
	return &Session{engine: e, id: e.nextSession.Add(1)}
}

// Txn is an in-flight transaction: its undo log and lock set.
type Txn struct {
	id       uint64
	beginLSN uint64
	ops      []txnOp
	engine   *Engine

	// snap is the transaction's read snapshot, acquired lazily at its first
	// SELECT and held to commit/rollback — repeatable reads within the
	// transaction. Owned by the transaction lifecycle, never released on a
	// statement path.
	snap *storage.Snapshot

	// act is the active trace of the statement currently running in this
	// transaction (explicit transactions span statements, so it is reset
	// per statement). WAL records logged through the txn carry its trace
	// ID, and appends record wal.append spans against it. nil is fine.
	act *trace.Active
}

// snapshot returns the transaction's read snapshot, acquiring it on first
// use. Self-visibility is keyed by the txn id: the snapshot sees the
// transaction's own uncommitted writes (read-your-writes).
func (t *Txn) snapshot() *storage.Snapshot {
	if t.snap == nil {
		t.snap = t.engine.versions.Acquire(t.id)
	}
	return t.snap
}

// releaseSnapshot ends the transaction's snapshot, if one was acquired.
func (t *Txn) releaseSnapshot() {
	if t.snap != nil {
		t.snap.Release()
		t.snap = nil
	}
}

// txnOp is one logged operation, kept for rollback in reverse order.
type txnOp struct {
	typ    storage.RecType
	table  string // table or index name
	row    storage.RowID
	newRow storage.RowID
	key    [][]byte
	old    []byte
	new    []byte
}

// Transaction errors.
var (
	ErrNoTxn          = errors.New("engine: no transaction in progress")
	ErrTxnInProgress  = errors.New("engine: transaction already in progress")
	ErrRollbackFailed = errors.New("engine: rollback could not restore a row")
	ErrNotNull        = errors.New("engine: NULL value in NOT NULL column")
	ErrReadOnly       = errors.New("engine: read replica is read-only until promoted")
)

// Begin starts an explicit transaction on the session.
func (s *Session) Begin() error {
	if s.txn != nil {
		return ErrTxnInProgress
	}
	s.txn = s.engine.beginTxn(s.act)
	return nil
}

// Commit commits the session's transaction.
func (s *Session) Commit() error {
	if s.txn == nil {
		return ErrNoTxn
	}
	err := s.engine.commitTxn(s.txn)
	s.txn = nil
	return err
}

// Rollback aborts the session's transaction.
func (s *Session) Rollback() error {
	if s.txn == nil {
		return ErrNoTxn
	}
	err := s.engine.rollbackTxn(s.txn)
	s.txn = nil
	return err
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.txn != nil }

func (e *Engine) beginTxn(act *trace.Active) *Txn {
	e.txnMu.Lock()
	id := e.nextTxn
	e.nextTxn++
	e.txnMu.Unlock()
	txn := &Txn{id: id, engine: e, act: act}
	sp := act.StartSpan("wal.append")
	txn.beginLSN = e.wal.Append(storage.Record{Txn: id, Type: storage.RecBegin, Trace: act.ID()})
	sp.End()
	e.txnMu.Lock()
	e.active[id] = txn
	e.txnMu.Unlock()
	return txn
}

func (e *Engine) commitTxn(t *Txn) error {
	t.releaseSnapshot()
	sp := t.act.StartSpan("wal.commit")
	// Every commit goes through the group-commit protocol with no added
	// window: a lone committer is its own leader and pays one flush, and
	// concurrent ones coalesce into whatever queued behind the previous round.
	e.wal.AppendCommitGroup(storage.Record{Txn: t.id, Type: storage.RecCommit, Trace: t.act.ID()}, 0)
	sp.End()
	// Stamping the versions IS the commit point for snapshot readers: a
	// snapshot acquired before this sees the pre-images, one acquired after
	// sees the heap. Retention past this point is bounded by the oldest
	// active snapshot; with no readers the images evict immediately.
	e.versions.Commit(t.id)
	e.locks.ReleaseAll(t.id)
	e.txnMu.Lock()
	delete(e.active, t.id)
	e.txnMu.Unlock()
	return nil
}

// rollbackTxn undoes the transaction: index entries are removed or restored
// logically (B+-tree navigation — the enclave-dependent path), heap changes
// physically via before-images.
func (e *Engine) rollbackTxn(t *Txn) error {
	t.releaseSnapshot()
	err := e.undoOps(t.act, t.id, t.ops)
	e.wal.Append(storage.Record{Txn: t.id, Type: storage.RecAbort, Trace: t.act.ID()})
	e.versions.Drop(t.id)
	e.locks.ReleaseAll(t.id)
	e.txnMu.Lock()
	delete(e.active, t.id)
	e.txnMu.Unlock()
	return err
}

// undoOps reverses a slice of operations (newest first). Every undo action
// is logged as a compensation log record (CLR) attributed to txn, so a
// replica replaying the log applies undo physically — it never has to
// re-derive it, which for encrypted indexes it could not do without keys.
func (e *Engine) undoOps(act *trace.Active, txn uint64, ops []txnOp) error {
	for i := len(ops) - 1; i >= 0; i-- {
		if err := e.undoOne(act, txn, &ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// undoOne reverses a single operation and logs the CLR. Heap undo holds the
// table mutex across the heap change and the WAL append so the log order
// matches the page mutation order — the invariant physical replay relies on.
// act is the trace of the statement being undone (nil in recovery).
func (e *Engine) undoOne(act *trace.Active, txn uint64, op *txnOp) error {
	switch op.typ {
	case storage.RecHeapInsert:
		tbl, err := e.catalog.Table(op.table)
		if err != nil {
			return err
		}
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		if err := tbl.Heap.Delete(op.row); err != nil {
			return err
		}
		e.wal.Append(storage.Record{Txn: txn, Type: storage.RecHeapDelete,
			Table: op.table, Row: op.row, Old: op.new, CLR: true})
		return nil
	case storage.RecHeapDelete:
		tbl, err := e.catalog.Table(op.table)
		if err != nil {
			return err
		}
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		if err := tbl.Heap.RestoreAt(op.row, op.old); err != nil {
			return fmt.Errorf("%w: %v", ErrRollbackFailed, err)
		}
		e.wal.Append(storage.Record{Txn: txn, Type: storage.RecHeapInsert,
			Table: op.table, Row: op.row, New: op.old, CLR: true})
		return nil
	case storage.RecHeapUpdate:
		tbl, err := e.catalog.Table(op.table)
		if err != nil {
			return err
		}
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		if op.newRow != op.row && op.newRow != 0 {
			// The update relocated the row; undo the move. Logged as a CLR
			// delete + CLR insert pair so replay restores the exact slot.
			if err := tbl.Heap.Delete(op.newRow); err != nil {
				return fmt.Errorf("%w: %v", ErrRollbackFailed, err)
			}
			e.wal.Append(storage.Record{Txn: txn, Type: storage.RecHeapDelete,
				Table: op.table, Row: op.newRow, Old: op.new, CLR: true})
			if err := tbl.Heap.RestoreAt(op.row, op.old); err != nil {
				return fmt.Errorf("%w: %v", ErrRollbackFailed, err)
			}
			e.wal.Append(storage.Record{Txn: txn, Type: storage.RecHeapInsert,
				Table: op.table, Row: op.row, New: op.old, CLR: true})
			return nil
		}
		rid2, err := tbl.Heap.Update(op.row, op.old, nil)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrRollbackFailed, err)
		}
		e.wal.Append(storage.Record{Txn: txn, Type: storage.RecHeapUpdate,
			Table: op.table, Row: op.row, NewRow: rid2, Old: op.new, New: op.old, CLR: true})
		return nil
	case storage.RecIndexInsert:
		idx, err := e.catalog.Index(op.table)
		if err != nil {
			return err
		}
		if err := idx.deleteKey(act, op.key, op.row); err != nil { // logical undo (§4.5)
			return err
		}
		e.wal.Append(storage.Record{Txn: txn, Type: storage.RecIndexDelete,
			Table: op.table, Row: op.row, Key: op.key, CLR: true})
		return nil
	case storage.RecIndexDelete:
		idx, err := e.catalog.Index(op.table)
		if err != nil {
			return err
		}
		if err := idx.insertKey(act, op.key, op.row); err != nil {
			return err
		}
		e.wal.Append(storage.Record{Txn: txn, Type: storage.RecIndexInsert,
			Table: op.table, Row: op.row, Key: op.key, CLR: true})
		return nil
	default:
		return nil
	}
}

// logRecord appends rec to the WAL on the transaction's behalf, under the
// current statement's wal.append span and trace ID. Callers logging heap
// records must hold the table mutex so log order and page mutation order
// agree.
func (t *Txn) logRecord(rec storage.Record) {
	sp := t.act.StartSpan("wal.append")
	rec.Txn, rec.Trace = t.id, t.act.ID()
	t.engine.wal.Append(rec)
	sp.End()
}

// log appends one operation's WAL record and mirrors it into the
// transaction's undo list.
func (t *Txn) log(op txnOp) {
	t.logRecord(storage.Record{
		Type: op.typ, Table: op.table,
		Row: op.row, NewRow: op.newRow, Key: op.key, Old: op.old, New: op.new,
	})
	t.ops = append(t.ops, op)
}

// updateRow rewrites a row under the transaction, fixing up index entries
// whose key columns changed. A failure leaves the work done so far in the
// undo list; withTxn undoes the whole statement.
func (e *Engine) updateRow(t *Txn, tbl *Table, rid storage.RowID, oldCells, newCells [][]byte) (storage.RowID, error) {
	for i := range tbl.Cols {
		if tbl.Cols[i].NotNull && (i >= len(newCells) || len(newCells[i]) == 0) {
			return 0, fmt.Errorf("%w: %s.%s", ErrNotNull, tbl.Name, tbl.Cols[i].Name)
		}
	}
	if err := e.locks.Lock(t.id, tbl.Name, rid); err != nil {
		return 0, err
	}
	oldRec := encodeRow(oldCells)
	newRec := encodeRow(newCells)
	e.versions.Record(t.id, tbl.Name, rid, oldRec)

	tbl.mu.Lock()
	// If the update relocates the row, the new slot gets a nil pre-image
	// chain under the page latch (invisible to concurrent snapshots until
	// commit), matching the insert path.
	newRID, err := tbl.Heap.Update(rid, newRec, func(r storage.RowID) {
		e.versions.Record(t.id, tbl.Name, r, nil)
	})
	if err != nil {
		tbl.mu.Unlock()
		return 0, err
	}
	t.log(txnOp{typ: storage.RecHeapUpdate, table: tbl.Name, row: rid, newRow: newRID, old: oldRec, new: newRec})
	tbl.mu.Unlock()

	for _, idx := range tbl.Indexes {
		oldKey := idx.indexKeyFor(oldCells)
		newKey := idx.indexKeyFor(newCells)
		moved := newRID != rid
		changed := moved || !keysEqualBytes(oldKey, newKey)
		if !changed {
			continue
		}
		ok := copyKey(oldKey)
		nk := copyKey(newKey)
		if err := idx.deleteKey(t.act, ok, rid); err != nil {
			return 0, err
		}
		t.log(txnOp{typ: storage.RecIndexDelete, table: idx.Name, row: rid, key: ok})
		if err := idx.insertKey(t.act, nk, newRID); err != nil {
			return 0, err
		}
		t.log(txnOp{typ: storage.RecIndexInsert, table: idx.Name, row: newRID, key: nk})
	}
	return newRID, nil
}

// deleteRow removes a row under the transaction; failures are undone by
// withTxn, as for updateRow.
func (e *Engine) deleteRow(t *Txn, tbl *Table, rid storage.RowID, cells [][]byte) error {
	if err := e.locks.Lock(t.id, tbl.Name, rid); err != nil {
		return err
	}
	rec := encodeRow(cells)
	e.versions.Record(t.id, tbl.Name, rid, rec)
	for _, idx := range tbl.Indexes {
		key := copyKey(idx.indexKeyFor(cells))
		if err := idx.deleteKey(t.act, key, rid); err != nil {
			return err
		}
		t.log(txnOp{typ: storage.RecIndexDelete, table: idx.Name, row: rid, key: key})
	}
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	if err := tbl.Heap.Delete(rid); err != nil {
		return err
	}
	t.log(txnOp{typ: storage.RecHeapDelete, table: tbl.Name, row: rid, old: rec})
	return nil
}

// keysEqualBytes compares composite keys byte-wise (sufficient for change
// detection: unchanged cells have identical bytes).
func keysEqualBytes(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// buildIndexTree constructs the comparator for an index over the given
// columns and returns an empty tree. DET components order by ciphertext
// (equality only); enclave-enabled RND components order by plaintext via the
// enclave; plaintext components order by their canonical encoding.
func (e *Engine) buildIndexTree(tbl *Table, colPos []int, unique bool) (*btree.Tree, []bool, []string, error) {
	orders := make([]btree.ColumnOrder, len(colPos))
	rangeCapable := make([]bool, len(colPos))
	var ceks []string
	for i, pos := range colPos {
		col := &tbl.Cols[pos]
		switch col.Enc.Scheme {
		case sqltypes.SchemePlaintext:
			orders[i] = btree.BinaryOrder{}
			rangeCapable[i] = true
		case sqltypes.SchemeDeterministic:
			// Equality index: ciphertext order supports point lookups only
			// (§3.1.1).
			orders[i] = btree.BinaryOrder{}
			rangeCapable[i] = false
		case sqltypes.SchemeRandomized:
			if !col.Enc.EnclaveEnabled {
				return nil, nil, nil, fmt.Errorf(
					"engine: cannot index RANDOMIZED column %s.%s without an enclave-enabled key (§2.4.4)",
					tbl.Name, col.Name)
			}
			if e.cfg.Enclave == nil {
				return nil, nil, nil, errors.New("engine: range index on encrypted column requires an enclave")
			}
			orders[i] = btree.EnclaveOrder{CEK: col.Enc.CEKName, Enclave: e.cfg.Enclave}
			rangeCapable[i] = true
			ceks = append(ceks, col.Enc.CEKName)
		}
	}
	return btree.New(&btree.KeyComparator{Cols: orders}, unique), rangeCapable, ceks, nil
}
