package storage

import (
	"sync"
	"sync/atomic"
)

// VersionStore is the snapshot-visibility store. It started life as the
// persistence side of constant-time recovery (CTR, §4.5) — before a
// transaction overwrites or deletes a row, the last committed image is
// versioned here so post-crash readers immediately see committed data — and
// now doubles as the MVCC substrate for snapshot-isolation reads: every
// version carries its writer's commit timestamp, readers hold a Snapshot
// pinned to a point on the commit clock, and ImageAsOf walks a row's chain
// to the image that snapshot should see. Readers therefore never touch the
// lock manager; write-write conflicts stay on row locks.
//
// Retention is bounded by the oldest active snapshot (the watermark): a
// committed version every live snapshot can already see past is dead weight
// and is evicted — immediately at commit when no snapshot is active, or
// lazily as snapshots release. The images stored here are row encodings
// exactly as the heap holds them: for encrypted columns that is ciphertext,
// so snapshot reads widen nothing in the §3 trust boundary.
type VersionStore struct {
	mu       sync.RWMutex
	versions map[verKey][]Version
	// byTxn indexes each transaction's touched keys so commit stamping and
	// Drop are O(keys touched), not O(store).
	byTxn map[uint64][]verKey
	// clock is the commit timestamp source; a snapshot sees exactly the
	// commits stamped at or below its acquisition reading.
	clock uint64
	// snaps holds the timestamps of active snapshots, keyed by handle id.
	snaps    map[uint64]uint64
	nextSnap uint64
	// evictq holds keys whose freshly committed versions could not be
	// evicted at commit time because a snapshot still needed them.
	evictq []evictEntry
	// retained tracks version payload bytes for the
	// storage.version.retained_bytes gauge.
	retained atomic.Int64
	// perTable counts live versions per table, read lock-free on the scan
	// hot path so tables nobody is writing skip the chain lookup entirely.
	perTable sync.Map // table name -> *atomic.Int64
}

type verKey struct {
	Table string
	Row   RowID
}

type evictEntry struct {
	ts  uint64
	key verKey
}

// Version is one retained row image: the state of the row *before* Txn's
// change. CommitTS is zero while Txn is in flight and the clock reading
// stamped when it commits.
type Version struct {
	Txn      uint64
	Data     []byte // image prior to Txn's change; nil = row did not exist
	CommitTS uint64 // 0 = uncommitted
}

// NewVersionStore returns an empty store.
func NewVersionStore() *VersionStore {
	return &VersionStore{
		versions: make(map[verKey][]Version),
		byTxn:    make(map[uint64][]verKey),
		snaps:    make(map[uint64]uint64),
	}
}

func (vs *VersionStore) tableCounter(table string) *atomic.Int64 {
	if c, ok := vs.perTable.Load(table); ok {
		return c.(*atomic.Int64)
	}
	c, _ := vs.perTable.LoadOrStore(table, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// TableTouched reports, lock-free, whether the table has any retained
// versions. Scans consult it per row; a false answer means the heap image is
// authoritative and no chain lookup is needed.
func (vs *VersionStore) TableTouched(table string) bool {
	c, ok := vs.perTable.Load(table)
	return ok && c.(*atomic.Int64).Load() > 0
}

// Record saves the pre-image of (table, row) before txn modifies it. It may
// be called under a page latch (Heap insert observers register the version
// before the new slot becomes scannable), so VersionStore.mu ranks below
// Frame.Latch in the lock order.
func (vs *VersionStore) Record(txn uint64, table string, row RowID, before []byte) {
	var img []byte
	if before != nil {
		img = append([]byte(nil), before...)
	}
	key := verKey{Table: table, Row: row}
	vs.mu.Lock()
	vs.versions[key] = append(vs.versions[key], Version{Txn: txn, Data: img})
	vs.byTxn[txn] = append(vs.byTxn[txn], key)
	vs.mu.Unlock()
	vs.tableCounter(table).Add(1)
	vs.retained.Add(int64(len(img)) + versionOverhead)
}

// versionOverhead approximates per-version bookkeeping bytes for the
// retained-bytes gauge.
const versionOverhead = 48

// Commit stamps every version txn wrote with a fresh commit timestamp and
// returns it. Versions that no active snapshot can still need are evicted on
// the spot; the rest queue for eviction as snapshots release.
func (vs *VersionStore) Commit(txn uint64) uint64 {
	vs.mu.Lock()
	vs.clock++
	ts := vs.clock
	keys := vs.byTxn[txn]
	delete(vs.byTxn, txn)
	for _, key := range keys {
		chain := vs.versions[key]
		for i := range chain {
			if chain[i].Txn == txn && chain[i].CommitTS == 0 {
				chain[i].CommitTS = ts
			}
		}
	}
	wm := vs.watermarkLocked()
	for _, key := range keys {
		if ts <= wm {
			vs.evictChainLocked(key, wm)
		} else {
			vs.evictq = append(vs.evictq, evictEntry{ts: ts, key: key})
		}
	}
	vs.mu.Unlock()
	return ts
}

// watermarkLocked returns the highest commit timestamp every reader has
// moved past: the oldest active snapshot's timestamp, or the current clock
// when no snapshot is active.
func (vs *VersionStore) watermarkLocked() uint64 {
	wm := vs.clock
	for _, ts := range vs.snaps {
		if ts < wm {
			wm = ts
		}
	}
	return wm
}

// evictChainLocked drops the committed prefix of a chain that is at or below
// the watermark — versions every snapshot already sees past.
func (vs *VersionStore) evictChainLocked(key verKey, wm uint64) {
	chain := vs.versions[key]
	i := 0
	for i < len(chain) && chain[i].CommitTS != 0 && chain[i].CommitTS <= wm {
		vs.retained.Add(-(int64(len(chain[i].Data)) + versionOverhead))
		i++
	}
	if i == 0 {
		return
	}
	vs.tableCounter(key.Table).Add(int64(-i))
	if i == len(chain) {
		delete(vs.versions, key)
		return
	}
	vs.versions[key] = append([]Version(nil), chain[i:]...)
}

// drainEvictqLocked retries queued evictions now visible below the watermark.
func (vs *VersionStore) drainEvictqLocked() {
	wm := vs.watermarkLocked()
	kept := vs.evictq[:0]
	for _, e := range vs.evictq {
		if e.ts <= wm {
			vs.evictChainLocked(e.key, wm)
		} else {
			kept = append(kept, e)
		}
	}
	vs.evictq = kept
}

// Snapshot is a reader's fixed view of the commit clock. Acquire/Release
// must pair exactly once: a leaked snapshot pins version retention forever,
// a double release can free versions another reader still needs.
type Snapshot struct {
	vs       *VersionStore
	id       uint64
	ts       uint64
	self     uint64 // owning txn: its own uncommitted writes are visible
	released bool
}

// Acquire opens a snapshot at the current commit clock. selfTxn (0 for none)
// names the transaction whose own uncommitted writes the snapshot should see
// — read-your-writes within a transaction.
func (vs *VersionStore) Acquire(selfTxn uint64) *Snapshot {
	vs.mu.Lock()
	vs.nextSnap++
	s := &Snapshot{vs: vs, id: vs.nextSnap, ts: vs.clock, self: selfTxn}
	vs.snaps[s.id] = s.ts
	vs.mu.Unlock()
	return s
}

// TS returns the snapshot's position on the commit clock.
func (s *Snapshot) TS() uint64 { return s.ts }

// Release ends the snapshot, advancing the watermark and evicting versions
// nobody can see anymore.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	vs := s.vs
	vs.mu.Lock()
	delete(vs.snaps, s.id)
	vs.drainEvictqLocked()
	vs.mu.Unlock()
}

// RowImage resolves the snapshot-visible image of a row. overridden=false
// means the current heap image is the one this snapshot should see;
// overridden=true with nil img means the row is invisible (it did not exist
// at the snapshot point); otherwise img is the visible pre-change encoding.
// Callers must consult RowImage *after* reading the heap bytes: writers
// record the pre-image before mutating the page, so heap-then-chain reads
// are always consistent.
func (s *Snapshot) RowImage(table string, row RowID) (img []byte, overridden bool) {
	vs := s.vs
	if !vs.TableTouched(table) {
		return nil, false
	}
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	chain := vs.versions[verKey{Table: table, Row: row}]
	for i := range chain {
		v := &chain[i]
		if v.Txn == s.self {
			continue // own writes are visible; later versions decide
		}
		if v.CommitTS == 0 || v.CommitTS > s.ts {
			// The change is uncommitted or committed after the snapshot:
			// the image before it is what this snapshot sees.
			return v.Data, true
		}
	}
	return nil, false
}

// GhostRow is a row a heap scan can no longer produce (deleted or relocated
// by a change this snapshot does not see) but that is still visible to the
// snapshot through its retained pre-image.
type GhostRow struct {
	Row  RowID
	Data []byte
}

// Ghosts enumerates the table's snapshot-visible rows whose RowID the
// caller's scan did not emit (seen reports those it did). Scans and index
// probes call it after the pass over live rows so deleted-but-visible rows
// still reach the filter.
func (s *Snapshot) Ghosts(table string, seen func(RowID) bool) []GhostRow {
	vs := s.vs
	if !vs.TableTouched(table) {
		return nil
	}
	var out []GhostRow
	vs.mu.RLock()
	for key := range vs.versions {
		if key.Table != table || (seen != nil && seen(key.Row)) {
			continue
		}
		chain := vs.versions[key]
		for i := range chain {
			v := &chain[i]
			if v.Txn == s.self {
				continue
			}
			if v.CommitTS == 0 || v.CommitTS > s.ts {
				if v.Data != nil {
					out = append(out, GhostRow{Row: key.Row, Data: v.Data})
				}
				break
			}
		}
	}
	vs.mu.RUnlock()
	return out
}

// CommittedImage returns the image preceding a row's earliest uncommitted
// version, and whether such a version exists. exists=false means no
// uncommitted writer retains a version for the row (its current heap image
// is the committed one). This is the CTR reader contract, unchanged by the
// snapshot generalization.
func (vs *VersionStore) CommittedImage(table string, row RowID) (data []byte, exists bool) {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	vers := vs.versions[verKey{Table: table, Row: row}]
	for i := range vers {
		if vers[i].CommitTS == 0 {
			return vers[i].Data, true
		}
	}
	return nil, false
}

// PendingTxns lists transactions with uncommitted retained versions — the
// version cleaner's work list.
func (vs *VersionStore) PendingTxns() []uint64 {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	seen := make(map[uint64]bool)
	var out []uint64
	for _, vers := range vs.versions {
		for i := range vers {
			if vers[i].CommitTS == 0 && !seen[vers[i].Txn] {
				seen[vers[i].Txn] = true
				out = append(out, vers[i].Txn)
			}
		}
	}
	return out
}

// Drop discards all versions belonging to txn (rollback or recovery cleanup
// complete).
func (vs *VersionStore) Drop(txn uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	delete(vs.byTxn, txn)
	for key, vers := range vs.versions {
		kept := vers[:0]
		removed := 0
		for i := range vers {
			if vers[i].Txn != txn {
				kept = append(kept, vers[i])
			} else {
				vs.retained.Add(-(int64(len(vers[i].Data)) + versionOverhead))
				removed++
			}
		}
		if removed > 0 {
			vs.tableCounter(key.Table).Add(int64(-removed))
		}
		if len(kept) == 0 {
			delete(vs.versions, key)
		} else {
			vs.versions[key] = kept
		}
	}
}

// Size reports the number of retained versions (diagnostics).
func (vs *VersionStore) Size() int {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	n := 0
	for _, vers := range vs.versions {
		n += len(vers)
	}
	return n
}

// RetainedBytes reports the approximate bytes held by retained versions —
// the storage.version.retained_bytes gauge source.
func (vs *VersionStore) RetainedBytes() int64 { return vs.retained.Load() }

// ActiveSnapshots reports how many snapshots are open (diagnostics, tests).
func (vs *VersionStore) ActiveSnapshots() int {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return len(vs.snaps)
}
