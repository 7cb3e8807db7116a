package engine

import (
	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/storage"
)

// DefaultBatchSize is the executor's rows-per-batch when Config.BatchSize is
// unset: how many candidate rows are collected before the residual filter
// runs once over the whole batch, amortizing the enclave crossing (§4.6)
// across them. 256 keeps a batch of typical rows well under a megabyte of
// slot data while already pushing the per-row crossing cost below noise.
const DefaultBatchSize = 256

// arenaChunkSize is the allocation unit of cellArena.
const arenaChunkSize = 16 * 1024

// cellArena is a chunked bump allocator for row cells with batch lifetime.
// Heap scans hand out cells aliasing latched page memory; the executor
// copies them in here instead of one heap allocation per cell, and reclaims
// the whole batch's cells with one reset once no row in the batch can be
// referenced anymore. Chunks are never reallocated in place, so a handed-out
// cell stays valid until reset; reset keeps every chunk for the next batch.
type cellArena struct {
	cur  []byte
	full [][]byte // exhausted chunks, kept until reset so cells stay reachable
	free [][]byte // chunks reclaimed by reset, reused before allocating
}

// copyCell copies c into the arena and returns the stable copy. Empty cells
// (SQL NULL) pass through as nil.
func (a *cellArena) copyCell(c []byte) []byte {
	if len(c) == 0 {
		return nil
	}
	if len(a.cur)+len(c) > cap(a.cur) {
		if a.cur != nil {
			a.full = append(a.full, a.cur)
		}
		a.cur = a.chunk(len(c))
	}
	off := len(a.cur)
	a.cur = append(a.cur, c...)
	return a.cur[off : off+len(c) : off+len(c)]
}

// chunk returns an empty chunk with room for at least n bytes: a reclaimed
// one when it fits, a fresh one otherwise.
func (a *cellArena) chunk(n int) []byte {
	if k := len(a.free) - 1; k >= 0 && cap(a.free[k]) >= n {
		c := a.free[k]
		a.free[k] = nil
		a.free = a.free[:k]
		return c
	}
	return make([]byte, 0, max(n, arenaChunkSize))
}

// copyRow copies every cell of a row into the arena, rewriting the row's
// headers in place, and returns the row.
func (a *cellArena) copyRow(cells [][]byte) [][]byte {
	for i, c := range cells {
		cells[i] = a.copyCell(c)
	}
	return cells
}

// reset reclaims all arena memory for reuse. The caller must guarantee no
// cell handed out since the last reset is still referenced.
func (a *cellArena) reset() {
	for i, c := range a.full {
		a.free = append(a.free, c[:0])
		a.full[i] = nil
	}
	a.full = a.full[:0]
	a.cur = a.cur[:0]
}

// rowBatcher is the executor's batched filter pipeline: the access path adds
// candidate rows (outer rows, or joined outer+inner pairs) and every `size`
// rows the plan's residual filter is evaluated ONCE over the whole batch —
// one enclave crossing per TMEval instruction per batch instead of per row
// (§4.6) — before survivors are emitted to the consumer in row order. Each
// session owns one; its buffers are kept from one statement to the next,
// and every row-sized piece of a batch is carved from them.
type rowBatcher struct {
	plan *Plan
	ev   *exprsvc.Evaluator // nil when the plan has no residual filter
	fn   func(m *matchedRow) (bool, error)
	size int

	rids  []storage.RowID
	slots [][][]byte
	// slab is the storage slot rows are carved from; a batch's rows are
	// cleared and reclaimed together when it drains, so a carved row starts
	// zeroed.
	slab  [][]byte
	arena cellArena
	// pinned marks that a join's outer-row cells live in the arena and are
	// still being referenced by probes in flight; it blocks arena reset
	// across intermediate flushes.
	pinned bool
	// outer and inner are the statement's read sides (inner for a join),
	// kept here so their buffers are reused across statements.
	outer, inner readSide
	// stopped records that the consumer asked to stop (LIMIT reached).
	// Pending rows after the stop point are discarded unevaluated, exactly
	// as row-at-a-time execution would never have reached them.
	stopped bool
}

// carve returns the next n elements of *slab, capped so that appending to
// the piece cannot reach its neighbour. A full slab is replaced by one at
// least twice its size rather than grown in place: the pieces already carved
// keep the old array, and later pieces come from the larger one. Nothing is
// sized up front — the first slab holds just the first piece, since a point
// statement carves one row.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s)+n > cap(s) {
		s = make([]T, 0, max(2*cap(s), n))
	}
	at := len(s)
	*slab = s[:at+n]
	return s[at : at+n : at+n]
}

// add queues one candidate row, flushing when the batch is full.
func (b *rowBatcher) add(rid storage.RowID, slots [][]byte) error {
	b.rids = append(b.rids, rid)
	b.slots = append(b.slots, slots)
	if len(b.rids) >= b.size {
		return b.flush()
	}
	return nil
}

// flush evaluates the residual filter over the pending batch and emits
// matching rows, in order, to the consumer. Per-row evaluation errors fail
// the statement — but only if the consumer has not already stopped before
// reaching that row, preserving row-at-a-time early-stop semantics when a
// batch straddles the stop point.
func (b *rowBatcher) flush() error {
	if len(b.rids) == 0 {
		b.maybeReset()
		return nil
	}
	var matches []bool
	var rowErrs []error
	if b.ev != nil && !b.stopped {
		var err error
		matches, rowErrs, err = b.ev.EvalBoolBatch(b.slots)
		if err != nil {
			return err
		}
	}
	for i := range b.rids {
		if b.stopped {
			break
		}
		if rowErrs != nil && rowErrs[i] != nil {
			return rowErrs[i]
		}
		if matches != nil && !matches[i] {
			continue
		}
		cont, err := b.fn(&matchedRow{rid: b.rids[i], slots: b.slots[i]})
		if err != nil {
			return err
		}
		if !cont {
			b.stopped = true
		}
	}
	b.dropPending()
	b.maybeReset()
	return nil
}

// dropPending forgets the pending rows and reclaims the slot rows they were
// carved into.
func (b *rowBatcher) dropPending() {
	b.rids = b.rids[:0]
	clear(b.slots)
	b.slots = b.slots[:0]
	clear(b.slab)
	b.slab = b.slab[:0]
}

// release drops what the statement left in b — its plan, evaluator and
// consumer, pending rows, and the read sides' references into the statement's
// seeks and snapshot — and keeps every buffer's storage for the session's
// next statement.
func (b *rowBatcher) release() {
	b.plan, b.ev, b.fn, b.stopped, b.pinned = nil, nil, nil, false, false
	b.dropPending()
	b.arena.reset()
	b.outer.release()
	b.inner.release()
}

// maybeReset reclaims the arena once nothing can reference its cells: no
// pending rows and no join outer row in flight.
func (b *rowBatcher) maybeReset() {
	if len(b.rids) == 0 && !b.pinned {
		b.arena.reset()
	}
}
