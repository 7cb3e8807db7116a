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
// cell stays valid until reset.
type cellArena struct {
	cur  []byte
	full [][]byte // exhausted chunks, kept until reset so cells stay reachable
}

// copyCell copies c into the arena and returns the stable copy. Empty cells
// (SQL NULL) pass through as nil.
func (a *cellArena) copyCell(c []byte) []byte {
	if len(c) == 0 {
		return nil
	}
	if len(a.cur)+len(c) > cap(a.cur) {
		size := arenaChunkSize
		if len(c) > size {
			size = len(c)
		}
		if a.cur != nil {
			a.full = append(a.full, a.cur)
		}
		a.cur = make([]byte, 0, size)
	}
	off := len(a.cur)
	a.cur = append(a.cur, c...)
	return a.cur[off : off+len(c) : off+len(c)]
}

// copyRow copies every cell of a row into the arena.
func (a *cellArena) copyRow(cells [][]byte) [][]byte {
	cp := make([][]byte, len(cells))
	for i, c := range cells {
		cp[i] = a.copyCell(c)
	}
	return cp
}

// reset reclaims all arena memory. The caller must guarantee no cell handed
// out since the last reset is still referenced.
func (a *cellArena) reset() {
	a.full = a.full[:0]
	a.cur = a.cur[:0]
}

// rowBatcher is the executor's batched filter pipeline: the access path adds
// candidate rows (outer rows, or joined outer+inner pairs) and every `size`
// rows the plan's residual filter is evaluated ONCE over the whole batch —
// one enclave crossing per TMEval instruction per batch instead of per row
// (§4.6) — before survivors are emitted to the consumer in row order.
type rowBatcher struct {
	plan *Plan
	ev   *exprsvc.Evaluator // nil when the plan has no residual filter
	fn   func(m *matchedRow) (bool, error)
	size int

	rids  []storage.RowID
	slots [][][]byte
	arena cellArena
	// pinned marks that a join's outer-row cells live in the arena and are
	// still being referenced by probes in flight; it blocks arena reset
	// across intermediate flushes.
	pinned bool
	// outer and inner are the statement's read sides (inner for a join),
	// kept here so their buffers are allocated once per statement.
	outer, inner readSide
	// stopped records that the consumer asked to stop (LIMIT reached).
	// Pending rows after the stop point are discarded unevaluated, exactly
	// as row-at-a-time execution would never have reached them.
	stopped bool
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
	b.rids = b.rids[:0]
	for i := range b.slots {
		b.slots[i] = nil
	}
	b.slots = b.slots[:0]
	b.maybeReset()
	return nil
}

// maybeReset reclaims the arena once nothing can reference its cells: no
// pending rows and no join outer row in flight.
func (b *rowBatcher) maybeReset() {
	if len(b.rids) == 0 && !b.pinned {
		b.arena.reset()
	}
}
