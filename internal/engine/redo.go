package engine

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// RedoApplier replays a primary's WAL onto a replica engine, in LSN order.
//
// Heap records are applied physically — the replica's pages end up
// byte-identical to the primary's, ciphertext included; the replica never
// decrypts anything. Index records are logical: plaintext and DET indexes
// apply immediately, and so does encrypted range-index work while the
// enclave holds the key. A replica's enclave usually holds none (clients only
// release keys to an attested enclave they talk to directly), so the first
// operation that needs a missing key invalidates the index and every later
// one on it is dropped: an index this server cannot maintain is neither read
// nor written. The heap stays complete, and after promotion the first key
// install rebuilds the index from it (Session.InstallCEK).
//
// In-flight transactions are mirrored into the engine's active-transaction
// table with their applied operations, so promotion is exactly crash
// recovery: Recover() undoes whatever the primary had not committed.
//
// The applier is not safe for concurrent use; the replication loop owns it.
type RedoApplier struct {
	e       *Engine
	txns    map[uint64]*Txn
	applied atomic.Uint64 // highest LSN applied
}

// ErrRedoDiverged mirrors storage.ErrRedoDiverged for non-heap divergence.
var ErrRedoDiverged = errors.New("engine: redo diverged from primary log")

// NewRedoApplier builds an applier over a replica engine.
func NewRedoApplier(e *Engine) *RedoApplier {
	return &RedoApplier{e: e, txns: make(map[uint64]*Txn)}
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
		ra.txns[rec.Txn] = t
		e.txnMu.Lock()
		e.active[rec.Txn] = t
		if e.nextTxn <= rec.Txn {
			e.nextTxn = rec.Txn + 1
		}
		e.txnMu.Unlock()
		return nil

	case storage.RecCommit, storage.RecAbort:
		delete(ra.txns, rec.Txn)
		e.txnMu.Lock()
		delete(e.active, rec.Txn)
		e.txnMu.Unlock()
		return nil

	case storage.RecHeapInsert, storage.RecHeapDelete, storage.RecHeapUpdate:
		return ra.applyHeap(rec)

	case storage.RecHeapInsertMulti:
		return ra.applyHeapMulti(rec)

	case storage.RecIndexInsert, storage.RecIndexDelete:
		return ra.applyIndexOp(rec.Txn, txnOp{typ: rec.Type, table: rec.Table, row: rec.Row, key: rec.Key})

	case storage.RecIndexInsertMulti:
		return ra.applyIndexMulti(rec)

	case storage.RecDDL:
		return ra.applyDDL(rec)

	case storage.RecAlterEnc:
		return ra.applyAlterEnc(rec)

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
	if t := ra.txns[rec.Txn]; t != nil {
		t.ops = append(t.ops, txnOp{
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
	t := ra.txns[rec.Txn]
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	for i, rid := range rids {
		if err := tbl.Heap.ApplyInsert(rid, rows[i]); err != nil {
			return err
		}
		if t != nil {
			t.ops = append(t.ops, txnOp{typ: storage.RecHeapInsert, table: rec.Table, row: rid, new: rows[i]})
		}
	}
	return nil
}

// applyIndexMulti replays an insert statement's index record as one batch
// into the tree and mirrors its entries into the owning transaction's undo
// list. Invalidation behaves as for a single-entry record: a batch that
// needs a key the enclave lacks fails at its first enclave task, changes
// nothing, and invalidates the index.
func (ra *RedoApplier) applyIndexMulti(rec *storage.Record) error {
	keys, rids, err := storage.DecodeIndexEntries(rec.New)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRedoDiverged, err)
	}
	idx, err := ra.e.catalog.Index(rec.Table)
	if err != nil {
		return err
	}
	applied, err := ra.settle(idx, idx.Tree.InsertBatch(keys, rids))
	if t := ra.txns[rec.Txn]; applied && t != nil {
		for i := range rids {
			t.ops = append(t.ops, txnOp{typ: storage.RecIndexInsert, table: rec.Table, row: rids[i], key: keys[i]})
		}
	}
	return err
}

// applyIndexOp performs logical redo of one index operation and mirrors it
// into its transaction's undo list. An operation on an invalidated index is
// dropped; one that needs a key the enclave lacks invalidates the index and
// is dropped too — the heap, which redo keeps complete, is what a rebuild
// reads.
func (ra *RedoApplier) applyIndexOp(txn uint64, op txnOp) error {
	idx, err := ra.e.catalog.Index(op.table)
	if err != nil {
		return err
	}
	if op.typ == storage.RecIndexInsert {
		err = idx.Tree.Insert(op.key, op.row)
	} else {
		_, err = idx.Tree.Delete(op.key, op.row)
	}
	applied, err := ra.settle(idx, err)
	if t := ra.txns[txn]; applied && t != nil {
		t.ops = append(t.ops, op)
	}
	return err
}

// settle sorts out what a redo tree operation's error means: nil, the
// operation applied; a missing key, it did not, and the index is
// invalidated; an index already invalidated, it is dropped. Anything else
// fails redo.
func (ra *RedoApplier) settle(idx *Index, err error) (applied bool, _ error) {
	switch {
	case err == nil:
		return true, nil
	case IsKeyMissing(err):
		ra.e.invalidateIndex(idx.Tree)
	case !errors.Is(err, btree.ErrInvalidated):
		return false, err
	}
	return false, nil
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
		// Backfilling an encrypted range index takes enclave comparisons the
		// replica may not be able to make: such an index is registered
		// invalidated.
		return ra.e.executeCreateIndex(st, fillOrInvalidate, nil)
	case CreateCMKStmt:
		return e.executeCreateCMK(st, nil)
	case CreateCEKStmt:
		return e.executeCreateCEK(st, nil)
	default:
		return fmt.Errorf("%w: unexpected DDL record %q", ErrRedoDiverged, rec.DDL)
	}
}

// applyAlterEnc replays the catalog half of ALTER COLUMN encryption: the
// per-cell rewrites arrived as physical Txn-0 heap updates; this record flips
// the column's encryption type and rebuilds affected indexes. Rebuilds that
// need enclave keys leave the index invalidated.
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
		if err := e.buildIndex(tbl, idx, fillOrInvalidate); err != nil {
			return err
		}
	}
	e.InvalidatePlans()
	return nil
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
