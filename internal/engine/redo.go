package engine

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// RedoApplier replays a primary's WAL onto a replica engine, in LSN order.
//
// Heap records are applied physically — the replica's pages end up
// byte-identical to the primary's, ciphertext included; the replica never
// decrypts anything. Index records are logical: plaintext and DET indexes
// apply immediately, but encrypted range indexes need enclave comparisons and
// the replica's enclave holds no CEKs (clients only release keys to an
// attested enclave they talk to directly). Those operations are queued and,
// at transaction commit, registered as §4.5 deferred transactions with
// redo=true — the same machinery that parks un-undoable transactions after a
// crash parks un-applyable index work on a replica, and the same resolution
// path (keys arrive after promotion, ResolveDeferred) drains it.
//
// In-flight transactions are mirrored into the engine's active-transaction
// table with their applied operations, so promotion is exactly crash
// recovery: Recover() undoes whatever the primary had not committed.
//
// The applier is not safe for concurrent use; the replication loop owns it.
type RedoApplier struct {
	e    *Engine
	txns map[uint64]*redoTxn
	// blockedIdx is the per-index "sticky" defer set: once one operation on
	// an index is deferred, every later operation on that index defers too,
	// preserving log order within the index.
	blockedIdx map[string]bool
	// invalidIdx marks indexes registered in invalidated state (a CREATE
	// INDEX over existing encrypted data cannot be built without keys).
	// Operations on them are dropped: RebuildIndex after promotion
	// reconstructs from the heap, which already contains every change.
	invalidIdx map[string]bool
	applied    atomic.Uint64 // highest LSN applied
}

// redoTxn tracks one in-flight primary transaction on the replica.
type redoTxn struct {
	txn *Txn
	// pending holds forward operations that could not be applied (encrypted
	// index work), in log order.
	pending []txnOp
}

// ErrRedoDiverged mirrors storage.ErrRedoDiverged for non-heap divergence.
var ErrRedoDiverged = errors.New("engine: redo diverged from primary log")

// NewRedoApplier builds an applier over a replica engine.
func NewRedoApplier(e *Engine) *RedoApplier {
	return &RedoApplier{
		e:          e,
		txns:       make(map[uint64]*redoTxn),
		blockedIdx: make(map[string]bool),
		invalidIdx: make(map[string]bool),
	}
}

// AppliedLSN returns the highest LSN applied so far (0 before the first).
func (ra *RedoApplier) AppliedLSN() uint64 { return ra.applied.Load() }

// Apply replays one log record. Records must arrive in LSN order.
func (ra *RedoApplier) Apply(rec *storage.Record) error {
	if err := ra.applyRecord(rec); err != nil {
		return fmt.Errorf("redo LSN %d (%s): %w", rec.LSN, rec.Type, err)
	}
	ra.applied.Store(rec.LSN)
	return nil
}

func (ra *RedoApplier) applyRecord(rec *storage.Record) error {
	e := ra.e
	switch rec.Type {
	case storage.RecBegin:
		t := &Txn{id: rec.Txn, beginLSN: rec.LSN, engine: e}
		ra.txns[rec.Txn] = &redoTxn{txn: t}
		e.txnMu.Lock()
		e.active[rec.Txn] = t
		if e.nextTxn <= rec.Txn {
			e.nextTxn = rec.Txn + 1
		}
		e.txnMu.Unlock()
		return nil

	case storage.RecCommit, storage.RecAbort:
		rt := ra.txns[rec.Txn]
		if rt == nil {
			return nil // txn began before our copy of the log starts
		}
		delete(ra.txns, rec.Txn)
		e.txnMu.Lock()
		delete(e.active, rec.Txn)
		e.txnMu.Unlock()
		if len(rt.pending) == 0 {
			return nil
		}
		// Encrypted-index work the replica could not perform: park it as a
		// redo deferral (§4.5). For aborts the pending list holds forward
		// op + CLR pairs that net to zero, but applying them in order is
		// still the faithful replay once keys arrive.
		e.txnMu.Lock()
		e.deferSeq++
		e.deferred[rec.Txn] = &deferredTxn{txn: rt.txn, pending: rt.pending, redo: true, seq: e.deferSeq}
		e.txnMu.Unlock()
		e.wal.PinTxn(rec.Txn, rt.txn.beginLSN)
		return nil

	case storage.RecHeapInsert, storage.RecHeapDelete, storage.RecHeapUpdate:
		return ra.applyHeap(rec)

	case storage.RecHeapInsertMulti:
		return ra.applyHeapMulti(rec)

	case storage.RecIndexInsert, storage.RecIndexDelete:
		return ra.applyIndex(rec)

	case storage.RecIndexInsertMulti:
		return ra.applyIndexMulti(rec)

	case storage.RecDDL:
		return ra.applyDDL(rec)

	case storage.RecAlterEnc:
		return ra.applyAlterEnc(rec)

	case storage.RecCheckpoint:
		return nil
	default:
		return nil
	}
}

// applyHeap performs physical redo of one heap record and mirrors it into the
// owning transaction's undo list (Txn 0 records — ALTER COLUMN rewrites — have
// no transaction and are redo-only).
func (ra *RedoApplier) applyHeap(rec *storage.Record) error {
	e := ra.e
	tbl, err := e.catalog.Table(rec.Table)
	if err != nil {
		return err
	}
	// Only undo logs single-row inserts: the CLR compensating a delete puts
	// the row back into its exact original slot, not the heap tail. Forward
	// inserts arrive as RecHeapInsertMulti; one shaped like this comes from
	// an older build's log or a corrupt stream.
	if rec.Type == storage.RecHeapInsert && !rec.CLR {
		return fmt.Errorf("%w: forward RecHeapInsert at LSN %d", ErrRedoDiverged, rec.LSN)
	}
	tbl.mu.Lock()
	switch rec.Type {
	case storage.RecHeapInsert:
		err = tbl.Heap.RestoreAt(rec.Row, rec.New)
	case storage.RecHeapDelete:
		err = tbl.Heap.Delete(rec.Row)
	case storage.RecHeapUpdate:
		err = tbl.Heap.ApplyUpdate(rec.Row, rec.NewRow, rec.New)
	}
	tbl.mu.Unlock()
	if err != nil {
		return err
	}
	if rt := ra.txns[rec.Txn]; rt != nil {
		rt.txn.ops = append(rt.txn.ops, txnOp{
			typ: rec.Type, table: rec.Table,
			row: rec.Row, newRow: rec.NewRow, old: rec.Old, new: rec.New,
		})
	}
	return nil
}

// applyHeapMulti performs physical redo of an insert statement's rows: every
// row lands at the exact slot the primary allocated, and the owning
// transaction's undo list mirrors per-row inserts — rollback and promotion
// never need to know the rows arrived in one record.
func (ra *RedoApplier) applyHeapMulti(rec *storage.Record) error {
	e := ra.e
	tbl, err := e.catalog.Table(rec.Table)
	if err != nil {
		return err
	}
	rids, rows, err := storage.DecodeHeapRows(rec.New)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRedoDiverged, err)
	}
	tbl.mu.Lock()
	for i, rid := range rids {
		if err := tbl.Heap.ApplyInsert(rid, rows[i]); err != nil {
			tbl.mu.Unlock()
			return err
		}
	}
	tbl.mu.Unlock()
	if rt := ra.txns[rec.Txn]; rt != nil {
		for i, rid := range rids {
			rt.txn.ops = append(rt.txn.ops, txnOp{
				typ: storage.RecHeapInsert, table: rec.Table, row: rid, new: rows[i],
			})
		}
	}
	return nil
}

// applyIndex performs logical redo of one index record, deferring encrypted
// work the replica's key-less enclave cannot do.
func (ra *RedoApplier) applyIndex(rec *storage.Record) error {
	op := txnOp{typ: rec.Type, table: rec.Table, row: rec.Row, key: rec.Key}
	return ra.applyIndexOp(rec.Txn, op)
}

// applyIndexMulti unpacks an insert statement's index record and replays each
// entry through the same path as a single-entry record, so per-index deferral
// and invalidation behave identically however the primary batched.
func (ra *RedoApplier) applyIndexMulti(rec *storage.Record) error {
	keys, rids, err := storage.DecodeIndexEntries(rec.New)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRedoDiverged, err)
	}
	for i := range rids {
		op := txnOp{typ: storage.RecIndexInsert, table: rec.Table, row: rids[i], key: keys[i]}
		if err := ra.applyIndexOp(rec.Txn, op); err != nil {
			return err
		}
	}
	return nil
}

func (ra *RedoApplier) applyIndexOp(txn uint64, op txnOp) error {
	e := ra.e
	if ra.invalidIdx[op.table] {
		return nil // index will be rebuilt from the heap after promotion
	}
	rt := ra.txns[txn]
	if !ra.blockedIdx[op.table] {
		err := e.applyOne(&op)
		if err == nil {
			if rt != nil {
				rt.txn.ops = append(rt.txn.ops, op)
			}
			return nil
		}
		if !IsKeyMissing(err) {
			return err
		}
		ra.blockedIdx[op.table] = true
	}
	if rt == nil {
		// Keyed work outside any mirrored transaction: nothing to attach the
		// deferral to (should not happen — index records are transactional).
		return fmt.Errorf("%w: keyless index op outside a transaction", ErrRedoDiverged)
	}
	rt.pending = append(rt.pending, op)
	return nil
}

// applyDDL re-executes a DDL statement from its logged text. CREATE TABLE
// materializes the heap's first page at the page id the primary allocated, so
// subsequent physical redo targets identical pages.
func (ra *RedoApplier) applyDDL(rec *storage.Record) error {
	e := ra.e
	stmt, err := Parse(rec.DDL)
	if err != nil {
		return fmt.Errorf("%w: reparsing DDL %q: %v", ErrRedoDiverged, rec.DDL, err)
	}
	switch st := stmt.(type) {
	case CreateTableStmt:
		// nil logDDL throughout: the replica mirrors the primary's records
		// via AppendAt and never appends its own.
		_, err := e.createTable(st, rec.Row.Page(), nil)
		return err
	case CreateIndexStmt:
		return ra.applyCreateIndex(st)
	case CreateCMKStmt:
		return e.executeCreateCMK(st, nil)
	case CreateCEKStmt:
		return e.executeCreateCEK(st, nil)
	default:
		return fmt.Errorf("%w: unexpected DDL record %q", ErrRedoDiverged, rec.DDL)
	}
}

// applyCreateIndex replays CREATE INDEX. Backfilling an encrypted range index
// requires enclave comparisons the replica cannot make; such an index is
// registered invalidated (buildIndex's fillOrInvalidate).
func (ra *RedoApplier) applyCreateIndex(st CreateIndexStmt) error {
	invalidated, err := ra.e.executeCreateIndex(st, fillOrInvalidate, nil)
	if invalidated {
		ra.invalidIdx[st.Name] = true
	}
	return err
}

// applyAlterEnc replays the catalog half of ALTER COLUMN encryption: the
// per-cell rewrites arrived as physical Txn-0 heap updates; this record flips
// the column's encryption type and rebuilds affected indexes. Rebuilds that
// need enclave keys leave the index invalidated for post-promotion rebuild.
func (ra *RedoApplier) applyAlterEnc(rec *storage.Record) error {
	e := ra.e
	colName, to, err := decodeAlterEnc(rec.DDL)
	if err != nil {
		return err
	}
	tbl, err := e.catalog.Table(rec.Table)
	if err != nil {
		return err
	}
	col, err := tbl.Col(colName)
	if err != nil {
		return err
	}
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	col.Enc = to
	for _, idx := range tbl.Indexes {
		if !slices.Contains(idx.ColPos, col.Pos) {
			continue
		}
		invalidated, err := e.buildIndex(tbl, idx, fillOrInvalidate)
		if err != nil {
			return err
		}
		if invalidated {
			ra.invalidIdx[idx.Name] = true
		} else {
			delete(ra.invalidIdx, idx.Name)
		}
	}
	e.InvalidatePlans()
	return nil
}

// DropInflightPending discards the queued (never-applied) encrypted-index
// work of transactions still in flight, returning how many operations were
// dropped. Promotion calls this before Recover(): an in-flight transaction is
// about to be rolled back, and operations that were never applied need no
// undo — keeping them would corrupt the indexes when resolution "applied"
// them after the rollback.
func (ra *RedoApplier) DropInflightPending() int {
	n := 0
	for _, rt := range ra.txns {
		n += len(rt.pending)
		rt.pending = nil
	}
	return n
}

// encodeAlterEnc packs a column's new encryption type for a RecAlterEnc
// record: column, scheme, CEK name and enclave flag, NUL-separated. No parser
// round trip — the replica reconstructs the EncType directly.
func encodeAlterEnc(column string, to sqltypes.EncType) string {
	enclave := "0"
	if to.EnclaveEnabled {
		enclave = "1"
	}
	return column + "\x00" + strconv.Itoa(int(to.Scheme)) + "\x00" + to.CEKName + "\x00" + enclave
}

func decodeAlterEnc(s string) (string, sqltypes.EncType, error) {
	parts := strings.Split(s, "\x00")
	if len(parts) != 4 {
		return "", sqltypes.EncType{}, fmt.Errorf("%w: bad ALTER-ENC payload", ErrRedoDiverged)
	}
	scheme, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", sqltypes.EncType{}, fmt.Errorf("%w: bad ALTER-ENC scheme", ErrRedoDiverged)
	}
	return parts[0], sqltypes.EncType{
		Scheme:         sqltypes.EncScheme(scheme),
		CEKName:        parts[2],
		EnclaveEnabled: parts[3] == "1",
	}, nil
}
