package storage

import (
	"errors"
	"fmt"
	"sync"
)

// Heap is an unordered row file: a chain of slotted pages. Rows are opaque
// byte strings addressed by RowID. Inserts go to the tail page (or any page
// with room found via a simple cursor); updates stay in place when they fit
// and relocate otherwise, returning the new RowID so the caller can fix up
// index entries.
type Heap struct {
	pool *BufferPool

	mu    sync.Mutex
	first PageID
	last  PageID
	rows  int64
}

// ErrRowNotFound is returned for missing or deleted rows.
var ErrRowNotFound = errors.New("storage: row not found")

// NewHeap creates an empty heap with one page.
func NewHeap(pool *BufferPool) (*Heap, error) {
	f, err := pool.NewPage(PageTypeHeap)
	if err != nil {
		return nil, err
	}
	id := f.Page().ID()
	pool.Unpin(f, true)
	return &Heap{pool: pool, first: id, last: id}, nil
}

// NewHeapAt creates an empty heap whose first page is materialized under a
// caller-chosen id — replaying a CREATE TABLE from the log, where the replica
// must reuse the page id the primary allocated.
func NewHeapAt(pool *BufferPool, id PageID) (*Heap, error) {
	f, err := pool.NewPageAt(id, PageTypeHeap)
	if err != nil {
		return nil, err
	}
	pool.Unpin(f, true)
	return &Heap{pool: pool, first: id, last: id}, nil
}

// OpenHeap reattaches to an existing heap chain starting at first,
// recounting rows (used after recovery).
func OpenHeap(pool *BufferPool, first PageID) (*Heap, error) {
	h := &Heap{pool: pool, first: first, last: first}
	id := first
	for id != InvalidPageID {
		f, err := pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		f.Latch.RLock()
		h.rows += int64(len(f.Page().LiveSlots()))
		next := f.Page().Next()
		f.Latch.RUnlock()
		pool.Unpin(f, false)
		h.last = id
		id = next
	}
	return h, nil
}

// FirstPage returns the head of the page chain (persisted in the catalog).
func (h *Heap) FirstPage() PageID { return h.first }

// Rows returns the live row count.
func (h *Heap) Rows() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rows
}

// Insert appends a record and returns its RowID. Placement is deterministic
// given the sequence of operations, which recovery relies on when replaying
// the log onto a fresh heap.
func (h *Heap) Insert(rec []byte) (RowID, error) {
	if len(rec) > MaxRecordSize {
		return 0, ErrRecordSize
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.place(rec, 0, nil)
}

// InsertBatch appends records under one heap-mutex acquisition — the insert
// path of every statement, one row or thousands. observe, when non-nil, is
// invoked with each assigned RowID *before* the row becomes reachable by
// concurrent scans (while the page write latch — or, for a freshly grown
// page, the unlinked page — is still held). Snapshot readers rely on this:
// the engine registers the row's version-store entry in the observer, so no
// scan can ever see the new slot without its visibility chain already in
// place. observe must not block and may only take locks ranked above
// Frame.Latch (VersionStore.mu). On a mid-batch failure the rows already
// placed are removed again and the error returned; the heap is unchanged.
func (h *Heap) InsertBatch(recs [][]byte, observe func(RowID)) ([]RowID, error) {
	for _, rec := range recs {
		if len(rec) > MaxRecordSize {
			return nil, ErrRecordSize
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rids := make([]RowID, 0, len(recs))
	for _, rec := range recs {
		rid, err := h.place(rec, 0, observe)
		if err != nil {
			for _, placed := range rids {
				h.deleteLocked(placed)
			}
			return nil, err
		}
		rids = append(rids, rid)
	}
	return rids, nil
}

// ErrRedoDiverged reports that replaying a logged operation produced a
// different row placement than the log records — the replica's pages no
// longer mirror the primary's and it must re-seed.
var ErrRedoDiverged = errors.New("storage: redo diverged from logged row placement")

// ApplyInsert re-executes an insert during log replay, verifying that the
// row lands at the logged RowID.
func (h *Heap) ApplyInsert(rid RowID, rec []byte) error {
	if len(rec) > MaxRecordSize {
		return ErrRecordSize
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := h.place(rec, rid, nil)
	return err
}

// place is the one heap placement routine; the caller holds h.mu. It puts
// rec on the tail page, growing the chain when the tail is full, and runs
// observe under the page latch. at == 0 is forward execution: the row takes
// whatever RowID the algorithm assigns and a grown page gets a fresh id.
// at != 0 is redo: the same algorithm must land the row exactly at `at`, and
// a grown page is materialized under at.Page() (NewPageAt) instead of
// allocated, so page images stay byte-identical to the primary's —
// including the tail-page compaction a failed insert attempt leaves behind.
func (h *Heap) place(rec []byte, at RowID, observe func(RowID)) (RowID, error) {
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return 0, err
	}
	f.Latch.Lock()
	slot, err := f.Page().Insert(rec)
	if err == nil {
		rid := NewRowID(h.last, slot)
		if observe != nil {
			observe(rid)
		}
		f.Latch.Unlock()
		h.pool.Unpin(f, true)
		if at != 0 && rid != at {
			return 0, fmt.Errorf("%w: inserted at %v, log says %v", ErrRedoDiverged, rid, at)
		}
		h.rows++
		return rid, nil
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, false)
	if !errors.Is(err, ErrPageFull) {
		return 0, err
	}
	// Grow the chain.
	var nf *Frame
	switch {
	case at == 0:
		nf, err = h.pool.NewPage(PageTypeHeap)
	case at.Page() == h.last:
		return 0, fmt.Errorf("%w: tail page %d full but log places row there", ErrRedoDiverged, h.last)
	default:
		nf, err = h.pool.NewPageAt(at.Page(), PageTypeHeap)
	}
	if err != nil {
		return 0, err
	}
	newID := nf.Page().ID()
	nf.Latch.Lock()
	slot, err = nf.Page().Insert(rec)
	rid := NewRowID(newID, slot)
	if err == nil && observe != nil {
		// The page is not linked into the chain yet, but the observer runs
		// before that happens all the same.
		observe(rid)
	}
	nf.Latch.Unlock()
	h.pool.Unpin(nf, true)
	if err != nil {
		return 0, err
	}
	if at != 0 && rid != at {
		return 0, fmt.Errorf("%w: fresh page slot %d, log says %d", ErrRedoDiverged, slot, at.Slot())
	}
	// Link the old tail to the new page.
	of, err := h.pool.Fetch(h.last)
	if err != nil {
		return 0, err
	}
	of.Latch.Lock()
	of.Page().SetNext(newID)
	of.Latch.Unlock()
	h.pool.Unpin(of, true)
	h.last = newID
	h.rows++
	return rid, nil
}

// Update rewrites the record at rid. If the record no longer fits in its
// page it is deleted and placed elsewhere; the returned RowID is the
// (possibly new) location, and observe fires with it before the new slot
// becomes scannable (see InsertBatch). In-place updates never invoke
// observe — the caller has already versioned the pre-image under rid.
func (h *Heap) Update(rid RowID, rec []byte, observe func(RowID)) (RowID, error) {
	return h.update(rid, 0, rec, observe)
}

// ApplyUpdate re-executes an Update during log replay. An in-place update
// (rid == newRID) must succeed in place; a relocating one re-runs the failed
// in-place attempt first — mirroring the compaction it performs on the
// primary — then deletes and places the row at the logged destination.
func (h *Heap) ApplyUpdate(rid, newRID RowID, rec []byte) error {
	_, err := h.update(rid, newRID, rec, nil)
	return err
}

// update is Update for at == 0 and ApplyUpdate for at != 0 (the logged
// destination, which the outcome must match).
func (h *Heap) update(rid, at RowID, rec []byte, observe func(RowID)) (RowID, error) {
	if len(rec) > MaxRecordSize {
		return 0, ErrRecordSize
	}
	f, err := h.pool.Fetch(rid.Page())
	if err != nil {
		return 0, fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	}
	f.Latch.Lock()
	err = f.Page().Update(rid.Slot(), rec)
	f.Latch.Unlock()
	h.pool.Unpin(f, err == nil)
	switch {
	case err == nil:
		if at != 0 && at != rid {
			return 0, fmt.Errorf("%w: update fit in place, log says it relocated to %v", ErrRedoDiverged, at)
		}
		return rid, nil
	case !errors.Is(err, ErrPageFull):
		return 0, fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	case at == rid:
		return 0, fmt.Errorf("%w: in-place update failed (%v), log says it fit", ErrRedoDiverged, err)
	}
	if err := h.Delete(rid); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.place(rec, at, observe)
}

// RestoreAt puts a record back into the exact RowID it occupied before a
// delete — physical undo (§4.5: redo and heap undo are physical; only index
// undo is logical). Fails if the slot has been reused, which cannot happen
// while the deleting transaction holds the row lock.
func (h *Heap) RestoreAt(rid RowID, rec []byte) error {
	f, err := h.pool.Fetch(rid.Page())
	if err != nil {
		return fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	}
	f.Latch.Lock()
	err = f.Page().InsertAt(rid.Slot(), rec)
	f.Latch.Unlock()
	h.pool.Unpin(f, err == nil)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.rows++
	h.mu.Unlock()
	return nil
}

// Get copies the record at rid into a fresh slice.
func (h *Heap) Get(rid RowID) ([]byte, error) {
	return h.AppendRecord(nil, rid)
}

// AppendRecord appends the record at rid to dst and returns the extended
// slice — Get into a buffer the caller reuses across rows.
func (h *Heap) AppendRecord(dst []byte, rid RowID) ([]byte, error) {
	f, err := h.pool.Fetch(rid.Page())
	if err != nil {
		return dst, fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	}
	f.Latch.RLock()
	p := f.Page()
	if err := checkPageID(p, rid.Page()); err != nil {
		f.Latch.RUnlock()
		h.pool.Unpin(f, false)
		return dst, err
	}
	rec, err := p.Read(rid.Slot())
	if err == nil {
		dst = append(dst, rec...)
	}
	f.Latch.RUnlock()
	h.pool.Unpin(f, false)
	if err != nil {
		return dst, fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	}
	return dst, nil
}

// ErrFrameMismatch reports a fetched frame whose page header names another
// page. The buffer pool recycles evicted frames, so a frame used after its
// pin was dropped can hold a different page by the time it is read; readers
// fail on that instead of returning another page's rows.
var ErrFrameMismatch = errors.New("storage: frame holds a different page than requested")

// checkPageID verifies that p, fetched for id, is page id. The caller holds
// the frame latch.
func checkPageID(p *Page, id PageID) error {
	if got := p.ID(); got != id {
		return fmt.Errorf("%w: want page %d, frame holds page %d", ErrFrameMismatch, id, got)
	}
	return nil
}

// Delete removes the record at rid.
func (h *Heap) Delete(rid RowID) error {
	if err := h.deletePage(rid); err != nil {
		return err
	}
	h.mu.Lock()
	h.rows--
	h.mu.Unlock()
	return nil
}

// deleteLocked is Delete for callers already holding h.mu (batch rollback).
func (h *Heap) deleteLocked(rid RowID) error {
	if err := h.deletePage(rid); err != nil {
		return err
	}
	h.rows--
	return nil
}

func (h *Heap) deletePage(rid RowID) error {
	f, err := h.pool.Fetch(rid.Page())
	if err != nil {
		return fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	}
	f.Latch.Lock()
	err = f.Page().Delete(rid.Slot())
	f.Latch.Unlock()
	h.pool.Unpin(f, err == nil)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrRowNotFound, rid)
	}
	return nil
}

// Scan calls fn for each live row in chain order. fn's rec slice aliases
// page memory and must be copied if retained. Returning false stops the scan.
func (h *Heap) Scan(fn func(rid RowID, rec []byte) (bool, error)) error {
	id := h.first
	for id != InvalidPageID {
		f, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		f.Latch.RLock()
		p := f.Page()
		if err := checkPageID(p, id); err != nil {
			f.Latch.RUnlock()
			h.pool.Unpin(f, false)
			return err
		}
		next := p.Next()
		for slot, n := 0, p.SlotCount(); slot < n; slot++ {
			rec, err := p.Read(slot)
			if err != nil {
				continue // deleted slot
			}
			cont, err := fn(NewRowID(id, slot), rec)
			if err != nil || !cont {
				f.Latch.RUnlock()
				h.pool.Unpin(f, false)
				return err
			}
		}
		f.Latch.RUnlock()
		h.pool.Unpin(f, false)
		id = next
	}
	return nil
}
