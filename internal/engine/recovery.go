package engine

import (
	"errors"
	"sort"
	"sync"
	"time"

	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/storage"
)

// This file implements the §4.5 recovery story. In SQL Server, redo recovery
// is physical and undo recovery of indexes is logical: aborted inserts are
// undone by navigating the B+-tree. Encrypted range indexes need enclave
// keys for that navigation, and clients only send keys when they run
// queries — so recovery may find itself unable to undo.
//
// Crash simulation: Crash() drops volatile state (sessions, the enclave's
// installed keys are dropped by the caller loading a fresh enclave) while
// the page store, trees and WAL survive — exactly the post-redo state a real
// restart reaches. Recover() then performs undo of in-flight transactions:
//
//   - Without CTR, a transaction whose index undo needs missing keys becomes
//     *deferred*: it keeps its locks (rows unavailable) and pins the log
//     (truncation blocked) until keys arrive or resolution is forced.
//   - With CTR (constant-time recovery), heap undo — physical, key-free —
//     runs immediately so clients see the last committed versions with all
//     locks released; only the index undos remain, retried by the version
//     cleaner until a client connects and supplies keys.
//   - ForceResolveDeferred implements the §4.5 escape hatch: skip recovery
//     of the index and mark it invalid in the metadata. It runs
//     automatically when no enclave is configured (e.g. restoring a backup
//     on an enclave-less machine).

// deferredTxn is a transaction recovery could not finish.
type deferredTxn struct {
	txn     *Txn
	pending []txnOp // operations still to undo (or, for redo, apply), oldest first
	// redo marks replication-redo deferral: the pending ops are *forward*
	// encrypted-index operations a replica could not apply for lack of keys.
	// Resolution applies them in order instead of undoing them.
	redo bool
	// seq orders deferred registrations; resolution runs in seq order so
	// cross-transaction operations on the same index replay as logged.
	seq uint64
}

// RecoveryReport summarizes a Recover run.
type RecoveryReport struct {
	UndoneTxns   []uint64
	DeferredTxns []uint64
	CTR          bool
	// LocksHeld counts locks still held by deferred transactions after
	// recovery (zero under CTR — the availability win of §4.5).
	LocksHeld int
}

// Crash simulates a process crash: open sessions and their transactions are
// abandoned in-flight. Call Recover next, optionally after replacing the
// enclave (a restarted enclave has no installed CEKs).
func (e *Engine) Crash() {
	// Nothing to do for storage: pages, trees and WAL survive (post-redo
	// state). Active transactions simply stop making progress.
	e.InvalidatePlans()
}

// ReplaceEnclave swaps in a freshly loaded enclave (post-restart). Index
// comparators are rebuilt to point at it.
func (e *Engine) ReplaceEnclave(encl *enclave.Enclave) {
	e.cfg.Enclave = encl
	e.catalog.mu.Lock()
	defer e.catalog.mu.Unlock()
	// Trees hold EnclaveOrder comparators referencing the old enclave;
	// repoint them at the new instance.
	for _, idx := range e.catalog.indexes {
		if len(idx.CEKs) > 0 {
			idx.Tree.SwapEnclave(encl)
		}
	}
}

// Recover performs the undo phase for all transactions that were in flight
// at the crash.
func (e *Engine) Recover() *RecoveryReport {
	e.txnMu.Lock()
	inflight := make([]*Txn, 0, len(e.active))
	for _, t := range e.active {
		inflight = append(inflight, t)
	}
	e.active = make(map[uint64]*Txn)
	e.txnMu.Unlock()

	rep := &RecoveryReport{CTR: e.cfg.CTR}
	for _, t := range inflight {
		// A crashed session never releases its read snapshot; drop it here so
		// it stops pinning the version-store watermark.
		t.releaseSnapshot()
		if e.undoTxnForRecovery(t, rep) {
			rep.UndoneTxns = append(rep.UndoneTxns, t.id)
		} else {
			rep.DeferredTxns = append(rep.DeferredTxns, t.id)
		}
	}
	e.txnMu.Lock()
	for _, d := range e.deferred {
		rep.LocksHeld += e.locks.HeldCount(d.txn.id)
	}
	e.txnMu.Unlock()
	return rep
}

// undoTxnForRecovery attempts full undo; on a key-missing failure the txn is
// deferred per the CTR setting. Returns true when fully undone.
func (e *Engine) undoTxnForRecovery(t *Txn, rep *RecoveryReport) bool {
	var pending []txnOp
	var err error
	if e.cfg.CTR {
		// Best-effort: all key-free undos (heap, plaintext indexes) complete
		// now so the database is immediately consistent and lock-free; only
		// encrypted-index undos remain.
		pending, err = e.tryUndo(t.id, t.ops)
	} else {
		// Strict reverse order, stopping at the first failure: the rows the
		// transaction touched stay as they were, protected only by its
		// locks — the §4.5 availability hazard.
		pending, err = e.undoStrict(t.id, t.ops)
	}
	if err == nil {
		e.wal.Append(storage.Record{Txn: t.id, Type: storage.RecAbort})
		e.versions.Drop(t.id)
		e.locks.ReleaseAll(t.id)
		return true
	}

	e.txnMu.Lock()
	e.deferSeq++
	d := &deferredTxn{txn: t, pending: pending, seq: e.deferSeq}
	e.txnMu.Unlock()
	e.wal.PinTxn(t.id, t.beginLSN)
	if e.cfg.CTR {
		// Under constant-time recovery the database comes up with all locks
		// released: heap undo is physical and already succeeded (tryUndo is
		// best-effort); only the logical index undos remain for the version
		// cleaner to retry.
		e.versions.Commit(t.id)
		e.versions.Drop(t.id)
		e.locks.ReleaseAll(t.id)
	}
	e.txnMu.Lock()
	e.deferred[t.id] = d
	e.txnMu.Unlock()
	return false
}

// tryUndo undoes ops in reverse, best-effort: operations whose undo fails
// (index navigation without enclave keys) are collected and returned oldest
// first, together with the first error. Key-free undos — all heap undos and
// plaintext index undos — always complete, so a deferred transaction's
// pending list shrinks to exactly the encrypted-index work.
func (e *Engine) tryUndo(txn uint64, ops []txnOp) ([]txnOp, error) {
	var failed []txnOp
	var firstErr error
	for i := len(ops) - 1; i >= 0; i-- {
		if err := e.undoOne(nil, txn, &ops[i]); err != nil {
			failed = append(failed, ops[i])
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for i, j := 0, len(failed)-1; i < j; i, j = i+1, j-1 {
		failed[i], failed[j] = failed[j], failed[i]
	}
	return failed, firstErr
}

// undoStrict undoes ops in strict reverse order, stopping at the first
// failure and returning everything not yet undone (oldest first).
func (e *Engine) undoStrict(txn uint64, ops []txnOp) ([]txnOp, error) {
	for i := len(ops) - 1; i >= 0; i-- {
		if err := e.undoOne(nil, txn, &ops[i]); err != nil {
			return append([]txnOp(nil), ops[:i+1]...), err
		}
	}
	return nil, nil
}

// applyStrict applies forward operations in order, stopping at the first
// failure and returning everything not yet applied. It is the resolution
// path for replication-redo deferrals: once keys arrive, the queued
// encrypted-index work replays exactly as the primary logged it.
func (e *Engine) applyStrict(ops []txnOp) ([]txnOp, error) {
	for i := range ops {
		if err := e.applyOne(&ops[i]); err != nil {
			return append([]txnOp(nil), ops[i:]...), err
		}
	}
	return nil, nil
}

func (e *Engine) applyOne(op *txnOp) error {
	switch op.typ {
	case storage.RecIndexInsert:
		idx, err := e.catalog.Index(op.table)
		if err != nil {
			return err
		}
		return idx.Tree.Insert(op.key, op.row)
	case storage.RecIndexDelete:
		idx, err := e.catalog.Index(op.table)
		if err != nil {
			return err
		}
		_, err = idx.Tree.Delete(op.key, op.row)
		return err
	default:
		return nil
	}
}

// DeferredCount reports how many transactions await resolution.
func (e *Engine) DeferredCount() int {
	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	return len(e.deferred)
}

// ResolveDeferred retries the pending undos of every deferred transaction —
// the path taken "when the client connects and sends keys to the enclave"
// (§4.5). It doubles as the CTR version cleaner's pass. Returns how many
// transactions were fully resolved.
func (e *Engine) ResolveDeferred() (resolved int, firstErr error) {
	e.txnMu.Lock()
	ids := make([]uint64, 0, len(e.deferred))
	for id := range e.deferred {
		ids = append(ids, id)
	}
	// Resolve in registration order: redo deferrals carry forward operations
	// whose cross-transaction order on a shared index must match the log.
	sort.Slice(ids, func(i, j int) bool {
		return e.deferred[ids[i]].seq < e.deferred[ids[j]].seq
	})
	e.txnMu.Unlock()

	for _, id := range ids {
		e.txnMu.Lock()
		d, ok := e.deferred[id]
		e.txnMu.Unlock()
		if !ok {
			continue
		}
		var pending []txnOp
		var err error
		if d.redo {
			pending, err = e.applyStrict(d.pending)
		} else {
			pending, err = e.undoStrict(d.txn.id, d.pending)
		}
		if err != nil {
			d.pending = pending
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.finishDeferred(d)
		resolved++
	}
	return resolved, firstErr
}

func (e *Engine) finishDeferred(d *deferredTxn) {
	if !d.redo {
		// Redo deferrals stem from the primary's log, which already carries
		// the transaction's commit/abort record; logging another would fork
		// the replica's copy of the log.
		e.wal.Append(storage.Record{Txn: d.txn.id, Type: storage.RecAbort})
	}
	e.wal.UnpinTxn(d.txn.id)
	e.versions.Drop(d.txn.id)
	e.locks.ReleaseAll(d.txn.id)
	e.txnMu.Lock()
	delete(e.deferred, d.txn.id)
	e.txnMu.Unlock()
}

// ForceResolveDeferred resolves deferred transactions without keys by
// skipping recovery of the affected index pages and marking those indexes
// invalid in the metadata (§4.5). Heap undo still runs (physical). Returns
// the invalidated index names. This is the policy escape hatch — triggered
// by timeouts or log-space consumption — and the automatic behaviour when
// no enclave is configured.
func (e *Engine) ForceResolveDeferred() []string {
	e.txnMu.Lock()
	ds := make([]*deferredTxn, 0, len(e.deferred))
	for _, d := range e.deferred {
		ds = append(ds, d)
	}
	e.txnMu.Unlock()

	invalidated := make(map[string]bool)
	for _, d := range ds {
		pending := d.pending
		if !d.redo {
			// Retry once more: undos that can complete without keys do.
			pending, _ = e.tryUndo(d.txn.id, d.pending)
		}
		// Redo deferrals hold *unapplied* forward index ops: never undo
		// those — the indexes they target are simply invalidated below.
		for i := range pending {
			op := &pending[i]
			if op.typ != storage.RecIndexInsert && op.typ != storage.RecIndexDelete {
				continue
			}
			if invalidated[op.table] {
				continue
			}
			if idx, err := e.catalog.Index(op.table); err == nil {
				idx.Tree.Invalidate()
				invalidated[op.table] = true
			}
		}
		e.finishDeferred(d)
	}
	e.InvalidatePlans()
	out := make([]string, 0, len(invalidated))
	for name := range invalidated {
		out = append(out, name)
	}
	return out
}

// StartCleaner launches the background version cleaner of §4.5: it retries
// deferred-transaction resolution on an interval until keys arrive ("the
// version cleaner ... could potentially not find keys in the enclave, in
// which case it keeps retrying"). The returned stop function halts it.
func (e *Engine) StartCleaner(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if e.DeferredCount() > 0 {
					e.ResolveDeferred()
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// RebuildIndex reconstructs an invalidated index from the heap (requires
// keys in the enclave for encrypted range indexes).
func (e *Engine) RebuildIndex(name string) error {
	idx, err := e.catalog.Index(name)
	if err != nil {
		return err
	}
	tbl, err := e.catalog.Table(idx.Table)
	if err != nil {
		return err
	}
	tbl.mu.Lock()
	_, err = e.buildIndex(tbl, idx, fillFromHeap)
	tbl.mu.Unlock()
	if err != nil {
		return err
	}
	e.InvalidatePlans()
	return nil
}

// IsKeyMissing reports whether an error chain indicates absent enclave keys
// (the trigger for deferral).
func IsKeyMissing(err error) bool {
	return errors.Is(err, enclave.ErrKeyNotInEnclave)
}
