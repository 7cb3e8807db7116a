package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alwaysencrypted/internal/obs"
)

// BufferPool caches pages over a PageStore with LRU eviction. Frames are
// pinned while in use; each frame carries its own latch so concurrent
// readers and writers of different pages do not serialize. An evicted frame
// is recycled for the page that evicted it, so a frame pointer is only
// meaningful while pinned: readers check the page id under the latch
// (Heap's checkPageID) and fail on a mismatch.
type BufferPool struct {
	store PageStore
	cap   int

	mu     sync.Mutex
	frames map[PageID]*Frame
	lru    *list.List // of *Frame, front = most recently used

	// Registry-backed counters (atomic; readable without b.mu). The pointers
	// are resolved once at construction so the hot path — and evictLocked,
	// which runs under b.mu — never takes the registry's own lock.
	reg     *obs.Registry
	hits    *obs.Counter
	misses  *obs.Counter
	evicts  *obs.Counter
	flushNS *obs.Histogram // per-page write-back latency (evict + checkpoint)
	stallNS *obs.Histogram // per-miss read stall (time blocked in ReadPage)

	// stallTotal accumulates miss-stall nanoseconds (monotonic, atomic).
	// The engine snapshots it around a statement and attributes the delta
	// to the statement's trace — see MissStallNS.
	stallTotal atomic.Int64
}

// Frame is a cached page plus pin/dirty bookkeeping. Latch must be held
// while reading or mutating the page contents.
type Frame struct {
	Latch sync.RWMutex
	page  Page
	id    PageID
	pins  int
	dirty bool
	elem  *list.Element
}

// Page returns the cached page; the caller must hold the frame latch (or be
// the only pinner).
func (f *Frame) Page() *Page { return &f.page }

// ErrPoolExhausted is returned when every frame is pinned and none can be
// evicted to make room.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// NewBufferPool creates a pool of capacity frames over store, reporting into
// a private registry. Use NewBufferPoolObs to share the caller's registry.
func NewBufferPool(store PageStore, capacity int) *BufferPool {
	return NewBufferPoolObs(store, capacity, obs.New("storage"))
}

// NewBufferPoolObs is NewBufferPool with an explicit obs registry, so the
// pool's counters appear in the same snapshot as the rest of the stack.
func NewBufferPoolObs(store PageStore, capacity int, reg *obs.Registry) *BufferPool {
	if capacity < 4 {
		capacity = 4
	}
	b := &BufferPool{
		store:   store,
		cap:     capacity,
		frames:  make(map[PageID]*Frame, capacity),
		lru:     list.New(),
		reg:     reg,
		hits:    reg.Counter("storage.pool.hits"),
		misses:  reg.Counter("storage.pool.misses"),
		evicts:  reg.Counter("storage.pool.evictions"),
		flushNS: reg.Histogram("storage.pool.flush_ns"),
		stallNS: reg.Histogram("storage.pool.miss_stall_ns"),
	}
	reg.GaugeFunc("storage.pool.frames", func() int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return int64(len(b.frames))
	})
	return b
}

// Obs returns the registry the pool reports into.
func (b *BufferPool) Obs() *obs.Registry { return b.reg }

// Fetch pins the frame holding the page, reading it from the store on a
// miss. The caller must Unpin it.
func (b *BufferPool) Fetch(id PageID) (*Frame, error) {
	b.mu.Lock()
	if f, ok := b.frames[id]; ok {
		f.pins++
		b.lru.MoveToFront(f.elem)
		b.hits.Inc()
		b.mu.Unlock()
		return f, nil
	}
	b.misses.Inc()
	f, err := b.newFrameLocked(id)
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	// Write-latch the frame before publishing it: the frame is already in
	// the map, so a concurrent Fetch can hit it and must block on the latch
	// until the page is loaded. The frame is new or recycled unpinned —
	// nobody holds its latch — and the pool lock is held, so this cannot
	// contend or invert the lock order.
	f.Latch.Lock()
	b.mu.Unlock()
	// Read outside the pool lock; the frame is pinned so it cannot vanish.
	// The stall is timed unconditionally (a miss is I/O-bound, one clock
	// read pair is noise): the cumulative total feeds per-statement trace
	// attribution even when histogram timing is switched off.
	start := time.Now()
	err = b.store.ReadPage(id, f.page.Bytes())
	stall := time.Since(start)
	f.Latch.Unlock()
	b.stallTotal.Add(stall.Nanoseconds())
	b.stallNS.Observe(stall.Nanoseconds())
	if err != nil {
		b.mu.Lock()
		f.pins--
		delete(b.frames, id)
		b.lru.Remove(f.elem)
		b.mu.Unlock()
		return nil, err
	}
	return f, nil
}

// NewPage allocates a fresh page in the store, formats it, and returns the
// pinned frame.
func (b *BufferPool) NewPage(pageType uint8) (*Frame, error) {
	id, err := b.store.Allocate()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	f, err := b.newFrameLocked(id)
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	b.mu.Unlock()
	f.page.Init(id, pageType)
	f.dirty = true
	return f, nil
}

// NewPageAt materializes a fresh page under a caller-chosen id — replication
// redo, where the replica must reproduce the primary's page allocations
// exactly rather than ask the allocator for the next free id. The page is
// written through to the store immediately so the store's allocation cursor
// advances past id (MemStore and FileStore both bump their next-page counter
// on out-of-range writes), keeping post-promotion allocations collision-free.
func (b *BufferPool) NewPageAt(id PageID, pageType uint8) (*Frame, error) {
	b.mu.Lock()
	f, err := b.newFrameLocked(id)
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	b.mu.Unlock()
	f.page.Init(id, pageType)
	if err := b.store.WritePage(id, f.page.Bytes()); err != nil {
		b.mu.Lock()
		f.pins--
		delete(b.frames, id)
		b.lru.Remove(f.elem)
		b.mu.Unlock()
		return nil, err
	}
	f.dirty = true
	return f, nil
}

// newFrameLocked inserts a pinned frame for id. A full pool recycles its
// least recently used unpinned frame — re-keyed and moved to the front, its
// page left for ReadPage or Init to overwrite — so a miss in steady state
// allocates nothing. Called with b.mu held.
func (b *BufferPool) newFrameLocked(id PageID) (*Frame, error) {
	if len(b.frames) < b.cap {
		f := &Frame{id: id, pins: 1}
		f.elem = b.lru.PushFront(f)
		b.frames[id] = f
		return f, nil
	}
	f, err := b.evictLocked()
	if err != nil {
		return nil, err
	}
	f.id, f.pins, f.dirty = id, 1, false
	b.lru.MoveToFront(f.elem)
	b.frames[id] = f
	return f, nil
}

// evictLocked unmaps the least recently used unpinned frame, flushing it if
// dirty, and returns it for reuse; it stays on the LRU list. Called with
// b.mu held. An unpinned frame has no latch holder: every reader and writer
// releases the latch before Unpin.
func (b *BufferPool) evictLocked() (*Frame, error) {
	for e := b.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*Frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			start := b.reg.Now()
			if err := b.store.WritePage(f.id, f.page.Bytes()); err != nil {
				return nil, err
			}
			b.flushNS.ObserveSince(start)
		}
		delete(b.frames, f.id)
		b.evicts.Inc()
		return f, nil
	}
	return nil, ErrPoolExhausted
}

// Unpin releases a pin, marking the frame dirty if the caller modified it.
func (b *BufferPool) Unpin(f *Frame, dirty bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dirty {
		f.dirty = true
	}
	if f.pins > 0 {
		f.pins--
	}
}

// FlushAll writes every dirty frame back to the store (checkpoint).
func (b *BufferPool) FlushAll() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, f := range b.frames {
		if !f.dirty {
			continue
		}
		// Read-latch the frame: a pinned writer may be mutating the page
		// under its write latch without holding the pool lock.
		start := b.reg.Now()
		f.Latch.RLock()
		err := b.store.WritePage(id, f.page.Bytes())
		f.Latch.RUnlock()
		if err != nil {
			return fmt.Errorf("storage: flushing page %d: %w", id, err)
		}
		b.flushNS.ObserveSince(start)
		f.dirty = false
	}
	return nil
}

// MissStallNS returns the cumulative nanoseconds Fetch callers have spent
// blocked reading missed pages from the store. The engine snapshots it
// before and after a statement and attributes the delta to the
// statement's trace. Under concurrent sessions the delta is an upper
// bound (another session's miss lands in whichever statements overlap
// it); exact per-page attribution would mean threading trace state
// through every page access, which the hot path cannot afford.
func (b *BufferPool) MissStallNS() int64 { return b.stallTotal.Load() }
