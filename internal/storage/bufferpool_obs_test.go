package storage

import (
	"testing"

	"alwaysencrypted/internal/obs"
)

// TestBufferPoolObs checks that pool activity lands in the shared registry,
// the pool's one set of counters.
func TestBufferPoolObs(t *testing.T) {
	reg := obs.New("t")
	pool := NewBufferPoolObs(NewMemStore(), 4, reg)

	var ids []PageID
	for i := 0; i < 8; i++ {
		f, err := pool.NewPage(PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.Page().ID())
		pool.Unpin(f, true)
	}
	for _, id := range ids {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, false)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	hits, misses, evictions := snap.Counters["storage.pool.hits"],
		snap.Counters["storage.pool.misses"], snap.Counters["storage.pool.evictions"]
	if pool.Obs() != reg {
		t.Fatal("pool reports into a registry other than the one it was given")
	}
	if misses == 0 || evictions == 0 {
		t.Fatalf("expected misses and evictions: hits=%d misses=%d evictions=%d", hits, misses, evictions)
	}
	// Dirty evictions and FlushAll both write pages back; each write must
	// record a flush latency sample.
	if snap.Histograms["storage.pool.flush_ns"].Count == 0 {
		t.Fatal("no flush latency samples recorded")
	}
	if g := snap.Gauges["storage.pool.frames"]; g <= 0 || g > 4 {
		t.Fatalf("frames gauge = %d, want 1..4", g)
	}
}
