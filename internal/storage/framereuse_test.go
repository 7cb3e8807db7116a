package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// TestFetchMissReusesFrame: once the pool is full, a miss recycles the
// evicted frame instead of allocating a new one.
func TestFetchMissReusesFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	pool := NewBufferPool(NewMemStore(), 4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		f, err := pool.NewPage(PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.Page().ID())
		pool.Unpin(f, true)
	}
	// Cycling through twice the pool's pages under LRU misses every time.
	next := 0
	fetch := func() {
		id := ids[next%len(ids)]
		next++
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Page().ID(); got != id {
			t.Fatalf("fetched page %d, frame holds %d", id, got)
		}
		pool.Unpin(f, false)
	}
	for i := 0; i < 2*len(ids); i++ {
		fetch()
	}
	misses0 := pool.Obs().Snapshot().Counters["storage.pool.misses"]
	if allocs := testing.AllocsPerRun(200, fetch); allocs != 0 {
		t.Fatalf("a miss that evicts allocates %.1f objects, want 0", allocs)
	}
	if misses := pool.Obs().Snapshot().Counters["storage.pool.misses"] - misses0; misses < 200 {
		t.Fatalf("%d misses over 201 fetches: the loop did not exercise eviction", misses)
	}
}

// TestRecycledFrameDirtyWriteBack: a dirty frame is written back before it
// is recycled, and the recycled frame starts clean — a page evicted right
// after being re-read must not be written over its store image.
func TestRecycledFrameDirtyWriteBack(t *testing.T) {
	store := NewMemStore()
	pool := NewBufferPool(store, 4)
	h, err := NewHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'r'}, 500)
	var rids []RowID
	for i := 0; i < 200; i++ { // ~13 pages through a 4-frame pool
		binary.LittleEndian.PutUint32(rec, uint32(i))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if n := binary.LittleEndian.Uint32(got); n != uint32(i) {
			t.Fatalf("row %d reads back as row %d", i, n)
		}
	}
}

// TestHeapRejectsForeignFrame: a frame whose page header names another page
// fails Scan and Get loudly instead of yielding that page's rows.
func TestHeapRejectsForeignFrame(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 8)
	h, err := NewHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("row"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := pool.Fetch(rid.Page())
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.Lock()
	binary.LittleEndian.PutUint32(f.Page().Bytes(), uint32(rid.Page())+1)
	f.Latch.Unlock()
	pool.Unpin(f, true)

	if _, err := h.Get(rid); !errors.Is(err, ErrFrameMismatch) {
		t.Fatalf("Get: err = %v, want ErrFrameMismatch", err)
	}
	err = h.Scan(func(RowID, []byte) (bool, error) {
		t.Fatal("Scan yielded a row of a mismatched frame")
		return false, nil
	})
	if !errors.Is(err, ErrFrameMismatch) {
		t.Fatalf("Scan: err = %v, want ErrFrameMismatch", err)
	}
}

// TestHeapFrameRecyclingStress runs scans, point reads and inserts
// concurrently over a file-backed heap whose 4-frame pool recycles a frame
// on nearly every page access, and checks every row read against a shadow
// of what was inserted. Run it under -race: a frame recycled while a reader
// still uses it shows up as a data race or as a row that is not its own.
func TestHeapFrameRecyclingStress(t *testing.T) {
	store, err := OpenFileStore(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := NewBufferPool(store, 4)
	h, err := NewHeap(pool)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	shadow := make(map[RowID]string)
	var rids []RowID
	lookup := func(rid RowID) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		want, ok := shadow[rid]
		return want, ok
	}
	// Each row names its writer and sequence number and is padded to ~120
	// bytes, so a page holds a few dozen rows and the heap spans many pages.
	row := func(w, i int) string { return fmt.Sprintf("w%d-%05d-%0100d", w, i, i) }

	const writers, perWriter = 2, 300
	done := make(chan struct{})
	var readers, wg sync.WaitGroup
	// At most four frames are pinned at once: the writers serialize on the
	// heap mutex and pin one frame at a time, each reader pins one.
	for s := 0; s < 2; s++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				err := h.Scan(func(rid RowID, rec []byte) (bool, error) {
					if rec[0] != 'w' {
						return false, fmt.Errorf("row %v: foreign bytes %q", rid, rec[:8])
					}
					if want, ok := lookup(rid); ok && string(rec) != want {
						return false, fmt.Errorf("row %v: scan read %q, inserted %q", rid, rec[:9], want[:9])
					}
					return true, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(1))
		var buf []byte
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			if len(rids) == 0 {
				mu.Unlock()
				continue
			}
			rid := rids[rng.Intn(len(rids))]
			want := shadow[rid]
			mu.Unlock()
			var err error
			buf, err = h.AppendRecord(buf[:0], rid)
			if err != nil {
				t.Error(err)
				return
			}
			if string(buf) != want {
				t.Errorf("row %v: Get read %q, inserted %q", rid, buf[:9], want[:9])
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := row(w, i)
				rid, err := h.Insert([]byte(rec))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				shadow[rid] = rec
				rids = append(rids, rid)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	seen := 0
	err = h.Scan(func(rid RowID, rec []byte) (bool, error) {
		if want := shadow[rid]; string(rec) != want {
			return false, fmt.Errorf("row %v: final scan read %q, inserted %q", rid, rec, want)
		}
		seen++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != writers*perWriter {
		t.Fatalf("final scan saw %d rows, inserted %d", seen, writers*perWriter)
	}
	if ev := pool.Obs().Snapshot().Counters["storage.pool.evictions"]; ev == 0 {
		t.Fatal("no evictions: the pool never recycled a frame")
	}
}
