package engine

import (
	"errors"
	"sync"
	"time"

	"alwaysencrypted/internal/btree"
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
//
// Deferral is for undo only. Index work this server cannot do going forward
// — replica redo without keys — uses the escape hatch directly: the index is
// invalidated, is neither read nor written, and the first install of its
// keys on a writable engine rebuilds it from the heap (rebuildInvalidated).
// Undo of an invalidated index is a no-op for the same reason.

// deferredTxn is a transaction recovery could not finish.
type deferredTxn struct {
	txn     *Txn
	pending []txnOp // operations still to undo, oldest first
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

	d := &deferredTxn{txn: t, pending: pending}
	e.wal.PinTxn(t.id, t.beginLSN)
	if e.cfg.CTR {
		// Under constant-time recovery the database comes up with all locks
		// released: heap undo is physical and already succeeded (tryUndo is
		// best-effort); only the logical index undos remain for the version
		// cleaner to retry. Stamping the transaction's versions committed
		// hands them to watermark eviction: the pre-images they carry are
		// what the physical undo put back in the heap.
		e.versions.Commit(t.id)
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
	for _, d := range e.deferredTxns() {
		pending, err := e.undoStrict(d.txn.id, d.pending)
		if err != nil {
			e.txnMu.Lock()
			d.pending = pending
			e.txnMu.Unlock()
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

// deferredTxns snapshots the deferred set.
func (e *Engine) deferredTxns() []*deferredTxn {
	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	ds := make([]*deferredTxn, 0, len(e.deferred))
	for _, d := range e.deferred {
		ds = append(ds, d)
	}
	return ds
}

func (e *Engine) finishDeferred(d *deferredTxn) {
	e.wal.Append(storage.Record{Txn: d.txn.id, Type: storage.RecAbort})
	e.wal.UnpinTxn(d.txn.id)
	e.versions.Drop(d.txn.id)
	e.locks.ReleaseAll(d.txn.id)
	e.txnMu.Lock()
	delete(e.deferred, d.txn.id)
	e.txnMu.Unlock()
}

// ForceResolveDeferred resolves deferred transactions without keys by
// skipping recovery of the affected index pages and marking those indexes
// invalid in the metadata (§4.5); the next install of their keys rebuilds
// them. Heap undo still runs (physical). Returns the invalidated index
// names. This is the policy escape hatch — triggered
// by timeouts or log-space consumption — and the automatic behaviour when
// no enclave is configured.
func (e *Engine) ForceResolveDeferred() []string {
	invalidated := make(map[string]bool)
	for _, d := range e.deferredTxns() {
		// Retry once more: undos that can complete without keys do. What
		// remains is index work; those indexes are invalidated.
		pending, _ := e.tryUndo(d.txn.id, d.pending)
		for _, op := range pending {
			if invalidated[op.table] {
				continue
			}
			if idx, err := e.catalog.Index(op.table); err == nil {
				e.invalidateIndex(idx.Tree)
				invalidated[op.table] = true
			}
		}
		e.finishDeferred(d)
	}
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

// invalidateIndex is the one way an index is given up (§4.5's escape hatch):
// the tree empties and refuses every operation, and cached plans that seek it
// are dropped, so reads scan and writes to its table fail until a rebuild.
func (e *Engine) invalidateIndex(tree *btree.Tree) {
	tree.Invalidate()
	e.InvalidatePlans()
}

// RebuildIndex reconstructs an invalidated index from the heap (requires
// keys in the enclave for encrypted range indexes); a valid one is left as
// it is. Under tbl.mu it waits for the table's statements and rollbacks in
// flight to finish (Table.busy), then fills a fresh tree and replaces the
// published one. Writers are refused while the index is invalidated, so the
// wait is bounded; a concurrent rebuild that publishes first ends it.
func (e *Engine) RebuildIndex(name string) error {
	idx, err := e.catalog.Index(name)
	if err != nil {
		return err
	}
	tbl, err := e.catalog.Table(idx.Table)
	if err != nil {
		return err
	}
	fresh := &Index{Name: idx.Name, ColPos: idx.ColPos, Unique: idx.Unique}
	tbl.mu.Lock()
	for tbl.busy > 0 && idx.Tree.Invalidated() {
		tbl.idle.Wait()
	}
	if idx.Tree.Invalidated() {
		if err = e.buildIndex(tbl, fresh, fillFromHeap); err == nil {
			idx.Tree.Replace(fresh.Tree)
		}
	}
	tbl.mu.Unlock()
	if err != nil {
		return err
	}
	e.InvalidatePlans()
	return nil
}

// rebuildInvalidated rebuilds every invalidated index whose keys the enclave
// now holds; Session.InstallCEK calls it, so the statement that shipped the
// keys already finds the index usable. A rebuild that fails leaves that index
// invalidated for a later install — a missing key silently, anything else
// counted in engine.rebuild_failures — and the others still rebuild.
//
// A read-only replica rebuilds nothing: its redo loop applies a statement's
// heap and index records at different LSNs, and a rebuild between them would
// index a row twice or miss it. Its reads scan until promotion. An index
// whose table or tree a deferred transaction still has undo work on waits
// too: non-CTR undo stops at its first failure, and the heap it would scan
// is about to change.
func (e *Engine) rebuildInvalidated() {
	if e.ReadOnly() {
		return
	}
	var stale []*Index
	e.catalog.mu.RLock()
	for _, idx := range e.catalog.indexes {
		if idx.Tree.Invalidated() && e.hasCEKs(idx.CEKs) {
			stale = append(stale, idx)
		}
	}
	e.catalog.mu.RUnlock()
	for _, idx := range stale {
		if e.undoPending(idx) {
			continue
		}
		if err := e.RebuildIndex(idx.Name); err != nil && !IsKeyMissing(err) {
			e.unbuilt.Inc()
		}
	}
}

func (e *Engine) hasCEKs(names []string) bool {
	for _, name := range names {
		if !e.cfg.Enclave.HasCEK(name) {
			return false
		}
	}
	return true
}

// undoPending reports whether a deferred transaction still has work to undo
// on idx or its table.
func (e *Engine) undoPending(idx *Index) bool {
	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	for _, d := range e.deferred {
		for _, op := range d.pending {
			if op.table == idx.Name || op.table == idx.Table {
				return true
			}
		}
	}
	return false
}

// IsKeyMissing reports whether an error chain indicates absent enclave keys
// (the trigger for deferral).
func IsKeyMissing(err error) bool {
	return errors.Is(err, enclave.ErrKeyNotInEnclave)
}
