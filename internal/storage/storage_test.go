package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPageInsertReadDelete(t *testing.T) {
	var p Page
	p.Init(7, PageTypeHeap)
	if p.ID() != 7 || p.Type() != PageTypeHeap {
		t.Fatal("header broken")
	}
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Read(s1); string(r) != "hello" {
		t.Fatalf("read s1 = %q", r)
	}
	if r, _ := p.Read(s2); string(r) != "world!" {
		t.Fatalf("read s2 = %q", r)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(s1); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("read deleted: %v", err)
	}
	if err := p.Delete(s1); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	// Tombstoned slots are never reused by Insert (RowID stability for
	// physical undo); only InsertAt may restore them.
	s3, err := p.Insert([]byte("again"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatalf("tombstoned slot %d was reused by Insert", s1)
	}
	if err := p.InsertAt(s1, []byte("restored")); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Read(s1); string(r) != "restored" {
		t.Fatalf("restored slot = %q", r)
	}
	if err := p.InsertAt(s1, []byte("x")); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("InsertAt into occupied slot: %v", err)
	}
}

func TestPageUpdateInPlaceAndGrow(t *testing.T) {
	var p Page
	p.Init(1, PageTypeHeap)
	s, _ := p.Insert([]byte("abcdef"))
	if err := p.Update(s, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Read(s); string(r) != "xy" {
		t.Fatalf("shrunk update = %q", r)
	}
	big := bytes.Repeat([]byte{'z'}, 100)
	if err := p.Update(s, big); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Read(s); !bytes.Equal(r, big) {
		t.Fatal("grown update mismatch")
	}
}

func TestPageFullAndCompaction(t *testing.T) {
	var p Page
	p.Init(1, PageTypeHeap)
	rec := bytes.Repeat([]byte{1}, 1000)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 7 {
		t.Fatalf("only %d 1000-byte records fit", len(slots))
	}
	// Delete every other record, then inserts must succeed via compaction.
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	for i := 0; i < len(slots)/2; i++ {
		if _, err := p.Insert(rec); err != nil {
			t.Fatalf("insert %d after compaction: %v", i, err)
		}
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		r, err := p.Read(slots[i])
		if err != nil || !bytes.Equal(r, rec) {
			t.Fatalf("survivor %d damaged: %v", slots[i], err)
		}
	}
}

func TestPageRejectsOversizeRecord(t *testing.T) {
	var p Page
	p.Init(1, PageTypeHeap)
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("err = %v", err)
	}
}

// Property: a random sequence of insert/delete/update operations maintains
// slot consistency: reads return exactly what was last written.
func TestQuickPageOperations(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Page
		p.Init(1, PageTypeHeap)
		shadow := make(map[int][]byte)
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0:
				rec := make([]byte, 1+rng.Intn(64))
				rng.Read(rec)
				s, err := p.Insert(rec)
				if err != nil {
					if !errors.Is(err, ErrPageFull) {
						return false
					}
					continue
				}
				if _, exists := shadow[s]; exists {
					return false // reused a live slot
				}
				shadow[s] = append([]byte(nil), rec...)
			case 1:
				for s := range shadow {
					if err := p.Delete(s); err != nil {
						return false
					}
					delete(shadow, s)
					break
				}
			case 2:
				for s := range shadow {
					rec := make([]byte, 1+rng.Intn(64))
					rng.Read(rec)
					if err := p.Update(s, rec); err != nil {
						if errors.Is(err, ErrPageFull) {
							break
						}
						return false
					}
					shadow[s] = append([]byte(nil), rec...)
					break
				}
			}
		}
		for s, want := range shadow {
			got, err := p.Read(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolFetchEvict(t *testing.T) {
	store := NewMemStore()
	pool := NewBufferPool(store, 4)
	var ids []PageID
	for i := 0; i < 10; i++ {
		f, err := pool.NewPage(PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		f.Page().Insert([]byte(fmt.Sprintf("page-%d", i)))
		ids = append(ids, f.Page().ID())
		pool.Unpin(f, true)
	}
	// All pages readable back despite pool cap of 4 (evictions flushed).
	for i, id := range ids {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := f.Page().Read(0)
		if err != nil || string(rec) != fmt.Sprintf("page-%d", i) {
			t.Fatalf("page %d content: %q err %v", id, rec, err)
		}
		pool.Unpin(f, false)
	}
	_, misses, evictions := pool.Stats()
	if evictions == 0 || misses == 0 {
		t.Fatalf("expected evictions and misses, got %d %d", evictions, misses)
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 4)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, err := pool.NewPage(PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := pool.NewPage(PageTypeHeap); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v", err)
	}
	pool.Unpin(frames[0], false)
	if _, err := pool.NewPage(PageTypeHeap); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(store, 8)
	heap, err := NewHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RowID
	for i := 0; i < 100; i++ {
		rid, err := heap.Insert([]byte(fmt.Sprintf("row-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	first := heap.FirstPage()
	store.Close()

	// Reopen from disk.
	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	pool2 := NewBufferPool(store2, 8)
	heap2, err := OpenHeap(pool2, first)
	if err != nil {
		t.Fatal(err)
	}
	if heap2.Rows() != 100 {
		t.Fatalf("rows after reopen = %d", heap2.Rows())
	}
	for i, rid := range rids {
		rec, err := heap2.Get(rid)
		if err != nil || string(rec) != fmt.Sprintf("row-%03d", i) {
			t.Fatalf("row %d: %q err %v", i, rec, err)
		}
	}
}

func TestHeapCRUDAndScan(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 16)
	heap, err := NewHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Insert enough to span multiple pages.
	n := 2000
	rids := make([]RowID, n)
	for i := 0; i < n; i++ {
		rid, err := heap.Insert([]byte(fmt.Sprintf("value-%06d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if heap.Rows() != int64(n) {
		t.Fatalf("rows = %d", heap.Rows())
	}
	// Update with growth forcing relocation.
	big := bytes.Repeat([]byte{'B'}, 500)
	newRID, err := heap.Update(rids[0], big, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := heap.Get(newRID)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("relocated row: %v", err)
	}
	// Delete and verify.
	if err := heap.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := heap.Get(rids[1]); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("get deleted: %v", err)
	}
	// Scan sees n-1 rows (one deleted, one relocated still counted once).
	count := 0
	if err := heap.Scan(func(rid RowID, rec []byte) (bool, error) {
		count++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n-1 {
		t.Fatalf("scan saw %d rows, want %d", count, n-1)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 8)
	heap, _ := NewHeap(pool)
	for i := 0; i < 10; i++ {
		heap.Insert([]byte{byte(i)})
	}
	seen := 0
	heap.Scan(func(rid RowID, rec []byte) (bool, error) {
		seen++
		return seen < 3, nil
	})
	if seen != 3 {
		t.Fatalf("seen = %d", seen)
	}
}

func TestWALAppendTruncatePin(t *testing.T) {
	w := NewWAL()
	l1 := w.Append(Record{Txn: 1, Type: RecBegin})
	w.Append(Record{Txn: 1, Type: RecHeapInsert, Table: "T", New: []byte("x")})
	l3 := w.Append(Record{Txn: 1, Type: RecCommit})
	if l1 != 1 || l3 != 3 || w.Len() != 3 {
		t.Fatalf("lsns %d %d len %d", l1, l3, w.Len())
	}
	// Pin txn 2 at LSN 2 — truncation past it must fail.
	w.PinTxn(2, 2)
	if err := w.TruncateBefore(3); !errors.Is(err, ErrTruncationBlocked) {
		t.Fatalf("err = %v", err)
	}
	w.UnpinTxn(2)
	if err := w.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 || w.Records()[0].LSN != 3 {
		t.Fatalf("after truncate: len %d", w.Len())
	}
}

func TestWALSerializeRoundTrip(t *testing.T) {
	w := NewWAL()
	w.Append(Record{Txn: 1, Type: RecBegin})
	w.Append(Record{Txn: 1, Type: RecHeapUpdate, Table: "Account", Row: NewRowID(3, 4),
		NewRow: NewRowID(3, 5), Old: []byte("old"), New: []byte("new")})
	w.Append(Record{Txn: 1, Type: RecIndexInsert, Table: "idx", Row: NewRowID(3, 5),
		Key: [][]byte{[]byte("k1"), []byte("k2")}})
	w.Append(Record{Txn: 1, Type: RecCommit})

	got, err := LoadWAL(w.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Records(), got.Records()
	if len(a) != len(b) {
		t.Fatalf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].LSN != b[i].LSN || a[i].Type != b[i].Type || a[i].Table != b[i].Table ||
			a[i].Row != b[i].Row || a[i].NewRow != b[i].NewRow ||
			!bytes.Equal(a[i].Old, b[i].Old) || !bytes.Equal(a[i].New, b[i].New) ||
			len(a[i].Key) != len(b[i].Key) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Truncations of the serialized form are rejected.
	ser := w.Serialize()
	for _, n := range []int{1, 8, 16, len(ser) / 2, len(ser) - 1} {
		if _, err := LoadWAL(ser[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func TestLockManagerBasics(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(1, "T", NewRowID(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Reentrant.
	if err := lm.Lock(1, "T", NewRowID(1, 1)); err != nil {
		t.Fatal(err)
	}
	if owner, ok := lm.Holder("T", NewRowID(1, 1)); !ok || owner != 1 {
		t.Fatalf("holder = %d %v", owner, ok)
	}
	// Contender blocks, then acquires after release.
	done := make(chan error, 1)
	go func() { done <- lm.Lock(2, "T", NewRowID(1, 1)) }()
	select {
	case <-done:
		t.Fatal("lock granted while held")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if owner, _ := lm.Holder("T", NewRowID(1, 1)); owner != 2 {
		t.Fatalf("owner = %d", owner)
	}
	lm.ReleaseAll(2)
	if _, held := lm.Holder("T", NewRowID(1, 1)); held {
		t.Fatal("lock still held")
	}
}

func TestLockManagerTimeout(t *testing.T) {
	lm := NewLockManager()
	lm.Timeout = 30 * time.Millisecond
	lm.Lock(1, "T", NewRowID(1, 1))
	if err := lm.Lock(2, "T", NewRowID(1, 1)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v", err)
	}
	// Owner unaffected.
	if owner, _ := lm.Holder("T", NewRowID(1, 1)); owner != 1 {
		t.Fatalf("owner = %d", owner)
	}
}

func TestLockManagerConcurrentCounter(t *testing.T) {
	lm := NewLockManager()
	row := NewRowID(1, 1)
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(txn uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := lm.Lock(txn, "T", row); err != nil {
					t.Error(err)
					return
				}
				counter++
				lm.Unlock(txn, "T", row)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if counter != 400 {
		t.Fatalf("counter = %d (lost updates)", counter)
	}
}

func TestVersionStoreCTRSemantics(t *testing.T) {
	vs := NewVersionStore()
	row := NewRowID(1, 1)
	// Txn 7 updates the row: pre-image retained.
	vs.Record(7, "Account", row, []byte("balance=100"))
	img, ok := vs.CommittedImage("Account", row)
	if !ok || string(img) != "balance=100" {
		t.Fatalf("committed image = %q %v", img, ok)
	}
	if txns := vs.PendingTxns(); len(txns) != 1 || txns[0] != 7 {
		t.Fatalf("pending = %v", txns)
	}
	// After commit the version is cleanable and readers use the heap image.
	vs.Commit(7)
	if _, ok := vs.CommittedImage("Account", row); ok {
		t.Fatal("committed txn still pending")
	}
	vs.Drop(7)
	if vs.Size() != 0 {
		t.Fatalf("size = %d", vs.Size())
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 1024)
	heap, _ := NewHeap(pool)
	rec := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heap.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPoolFetchHit(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 64)
	f, _ := pool.NewPage(PageTypeHeap)
	id := f.Page().ID()
	pool.Unpin(f, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pool.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(f, false)
	}
}

// heapImage flushes the pool and returns every page of the store by id.
func heapImage(t *testing.T, pool *BufferPool, store *MemStore) map[PageID][]byte {
	t.Helper()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	out := make(map[PageID][]byte)
	for id := PageID(1); int(id) <= store.PageCount(); id++ {
		buf := make([]byte, PageSize)
		if err := store.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		out[id] = buf
	}
	return out
}

// TestHeapOnePlacementPath: Insert×N, one InsertBatch(N) and ApplyInsert×N at
// the logged row ids are the same placement routine — across several
// page-grow boundaries they leave byte-identical pages — and a batch that
// fails part-way leaves the heap as it found it.
func TestHeapOnePlacementPath(t *testing.T) {
	const n = 400 // ~25 KiB of records: the chain grows several times
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 40+i%50)
	}
	newHeap := func(at PageID) (*Heap, *BufferPool, *MemStore) {
		store := NewMemStore()
		pool := NewBufferPool(store, 64)
		var h *Heap
		var err error
		if at == InvalidPageID {
			h, err = NewHeap(pool)
		} else {
			h, err = NewHeapAt(pool, at)
		}
		if err != nil {
			t.Fatal(err)
		}
		return h, pool, store
	}

	one, onePool, oneStore := newHeap(InvalidPageID)
	rids := make([]RowID, n)
	for i, rec := range recs {
		rid, err := one.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if rids[n-1].Page() == rids[0].Page() {
		t.Fatal("workload never grew the chain")
	}

	batch, batchPool, batchStore := newHeap(InvalidPageID)
	var observed []RowID
	batchRids, err := batch.InsertBatch(recs, func(rid RowID) { observed = append(observed, rid) })
	if err != nil {
		t.Fatal(err)
	}

	redo, redoPool, redoStore := newHeap(one.FirstPage())
	for i, rec := range recs {
		if err := redo.ApplyInsert(rids[i], rec); err != nil {
			t.Fatalf("ApplyInsert row %d: %v", i, err)
		}
	}

	for i := range rids {
		if batchRids[i] != rids[i] || observed[i] != rids[i] {
			t.Fatalf("row %d: Insert placed %v, InsertBatch %v (observer saw %v)", i, rids[i], batchRids[i], observed[i])
		}
	}
	want := heapImage(t, onePool, oneStore)
	for label, got := range map[string]map[PageID][]byte{
		"InsertBatch": heapImage(t, batchPool, batchStore),
		"ApplyInsert": heapImage(t, redoPool, redoStore),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d pages, Insert made %d", label, len(got), len(want))
		}
		for id, page := range want {
			if !bytes.Equal(got[id], page) {
				t.Fatalf("%s: page %d differs from the one Insert built", label, id)
			}
		}
	}
	if one.Rows() != n || batch.Rows() != n || redo.Rows() != n {
		t.Fatalf("rows = %d / %d / %d, want %d", one.Rows(), batch.Rows(), redo.Rows(), n)
	}

	// An oversized record in the middle of a batch: nothing is placed. A
	// redo that disagrees with the log is refused, too.
	bad := [][]byte{recs[0], make([]byte, MaxRecordSize+1), recs[1]}
	if _, err := batch.InsertBatch(bad, nil); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("oversized record mid-batch: %v, want ErrRecordSize", err)
	}
	if batch.Rows() != n {
		t.Fatalf("rows after failed batch = %d, want %d", batch.Rows(), n)
	}
	after := heapImage(t, batchPool, batchStore)
	for id, page := range want {
		if !bytes.Equal(after[id], page) {
			t.Fatalf("failed batch changed page %d", id)
		}
	}
	if err := redo.ApplyInsert(rids[0], recs[0]); !errors.Is(err, ErrRedoDiverged) {
		t.Fatalf("ApplyInsert at an occupied row id: %v, want ErrRedoDiverged", err)
	}
}
