package storage

import (
	"fmt"
	"strings"
	"testing"
)

// TestSnapshotVisibility walks the core MVCC rules: an uncommitted change
// overrides to its pre-image, a commit after the snapshot point stays
// invisible, and a commit before the snapshot point falls through to the
// heap image.
func TestSnapshotVisibility(t *testing.T) {
	vs := NewVersionStore()

	// Txn 1 commits an update of row 7 (pre-image "v1") before any reader.
	vs.Record(1, "T", 7, []byte("v1"))
	vs.Commit(1)

	// No snapshot active at commit: the chain evicts immediately, the heap
	// image is authoritative.
	snap := vs.Acquire(0)
	if img, over := snap.RowImage("T", 7); over {
		t.Fatalf("committed+evicted row overridden to %q", img)
	}

	// Txn 2 updates row 7 while snap is open: snap must see the pre-image.
	vs.Record(2, "T", 7, []byte("v2"))
	if img, over := snap.RowImage("T", 7); !over || string(img) != "v2" {
		t.Fatalf("uncommitted change: img=%q over=%v, want v2 override", img, over)
	}
	vs.Commit(2)
	// Committed after the snapshot point: still overridden.
	if img, over := snap.RowImage("T", 7); !over || string(img) != "v2" {
		t.Fatalf("post-snapshot commit: img=%q over=%v, want v2 override", img, over)
	}

	// A fresh snapshot sits above txn 2's commit: heap image authoritative.
	snap2 := vs.Acquire(0)
	if img, over := snap2.RowImage("T", 7); over {
		t.Fatalf("fresh snapshot overridden to %q", img)
	}
	snap2.Release()
	snap.Release()
}

// TestSnapshotReadYourWrites: a transaction's own uncommitted versions are
// skipped so it reads its own changes from the heap.
func TestSnapshotReadYourWrites(t *testing.T) {
	vs := NewVersionStore()
	vs.Record(9, "T", 3, []byte("before"))
	self := vs.Acquire(9)
	defer self.Release()
	if img, over := self.RowImage("T", 3); over {
		t.Fatalf("own write overridden to %q", img)
	}
	other := vs.Acquire(0)
	defer other.Release()
	if img, over := other.RowImage("T", 3); !over || string(img) != "before" {
		t.Fatalf("foreign reader: img=%q over=%v, want before", img, over)
	}
}

// TestSnapshotInsertInvisible: a nil pre-image (row did not exist) resolves
// to an invisible row for snapshots that predate the insert.
func TestSnapshotInsertInvisible(t *testing.T) {
	vs := NewVersionStore()
	snap := vs.Acquire(0)
	defer snap.Release()
	vs.Record(4, "T", 11, nil)
	img, over := snap.RowImage("T", 11)
	if !over || img != nil {
		t.Fatalf("pre-insert snapshot: img=%q over=%v, want nil override", img, over)
	}
}

// all wants every ghost.
func all(RowID, []byte) bool { return true }

// TestSnapshotGhosts: a delete the snapshot does not see keeps the row
// reachable through Ghosts; the owning transaction never ghosts its own.
func TestSnapshotGhosts(t *testing.T) {
	vs := NewVersionStore()
	snap := vs.Acquire(0)
	defer snap.Release()
	vs.Record(5, "T", 1, []byte("gone"))
	vs.Commit(5)

	ghosts := snap.Ghosts("T", nil, all)
	if len(ghosts) != 1 || ghosts[0].Row != 1 || string(ghosts[0].Data) != "gone" {
		t.Fatalf("ghosts = %+v, want one row 1 image gone", ghosts)
	}
	// Ghosts appends to the buffer it is handed.
	if g := snap.Ghosts("T", ghosts[:0], all); len(g) != 1 || &g[0] != &ghosts[0] {
		t.Fatalf("ghosts not appended to the reused buffer: %+v", g)
	}
	// A row the caller does not want (its scan produced it) is left out.
	if g := snap.Ghosts("T", nil, func(r RowID, _ []byte) bool { return r != 1 }); len(g) != 0 {
		t.Fatalf("unwanted row still ghosted: %+v", g)
	}
	// The owning transaction's own delete never ghosts for itself.
	selfSnap := vs.Acquire(5)
	defer selfSnap.Release()
	if g := selfSnap.Ghosts("T", nil, all); len(g) != 0 {
		t.Fatalf("own delete ghosted: %+v", g)
	}
}

// TestGhostsStayInTheirTable: with chains in two tables, a ghost pass over
// one returns none of the other's rows, whatever their row ids.
func TestGhostsStayInTheirTable(t *testing.T) {
	vs := NewVersionStore()
	snap := vs.Acquire(0)
	defer snap.Release()
	for r := RowID(1); r <= 4; r++ {
		vs.Record(7, "A", r, []byte("a"))
		vs.Record(8, "B", r, []byte("b"))
	}
	vs.Record(8, "B", 9, []byte("b"))
	for _, tc := range []struct {
		table string
		want  int
	}{{"A", 4}, {"B", 5}, {"C", 0}} {
		g := snap.Ghosts(tc.table, nil, all)
		if len(g) != tc.want {
			t.Fatalf("Ghosts(%s) returned %d rows, want %d", tc.table, len(g), tc.want)
		}
		for _, gr := range g {
			if string(gr.Data) != strings.ToLower(tc.table) {
				t.Fatalf("Ghosts(%s) returned row %d of another table (%q)", tc.table, gr.Row, gr.Data)
			}
		}
	}
}

// TestWatermarkEviction: versions a live snapshot still needs survive the
// commit, queue for eviction, and are reclaimed — with the retained-bytes
// gauge returning to zero — once the snapshot releases.
func TestWatermarkEviction(t *testing.T) {
	vs := NewVersionStore()
	snap := vs.Acquire(0)

	vs.Record(6, "T", 2, []byte("pinned-image"))
	vs.Commit(6)
	if vs.Size() != 1 {
		t.Fatalf("size = %d with snapshot pinning, want 1", vs.Size())
	}
	if vs.RetainedBytes() == 0 {
		t.Fatal("retained bytes zero while version pinned")
	}
	if img, over := snap.RowImage("T", 2); !over || string(img) != "pinned-image" {
		t.Fatalf("pinned version unreadable: img=%q over=%v", img, over)
	}

	snap.Release()
	if vs.Size() != 0 {
		t.Fatalf("size = %d after release, want 0", vs.Size())
	}
	if got := vs.RetainedBytes(); got != 0 {
		t.Fatalf("retained bytes = %d after release, want 0", got)
	}
	if vs.TableTouched("T") {
		t.Fatal("TableTouched true after full eviction")
	}
}

// TestCommitEvictsImmediatelyWithoutSnapshots: no active reader means the
// chain dies at commit.
func TestCommitEvictsImmediatelyWithoutSnapshots(t *testing.T) {
	vs := NewVersionStore()
	vs.Record(8, "T", 5, []byte("x"))
	vs.Commit(8)
	if vs.Size() != 0 || vs.RetainedBytes() != 0 {
		t.Fatalf("size=%d retained=%d after snapshot-free commit, want 0/0",
			vs.Size(), vs.RetainedBytes())
	}
}

// TestSnapshotReleaseIdempotent: Release twice must not free versions a
// remaining snapshot still needs.
func TestSnapshotReleaseIdempotent(t *testing.T) {
	vs := NewVersionStore()
	old := vs.Acquire(0)
	dup := vs.Acquire(0)
	vs.Record(3, "T", 9, []byte("held"))
	vs.Commit(3)

	dup.Release()
	dup.Release()
	if vs.ActiveSnapshots() != 1 {
		t.Fatalf("active snapshots = %d, want 1", vs.ActiveSnapshots())
	}
	if vs.Size() != 1 {
		t.Fatalf("double release evicted a pinned version: size = %d", vs.Size())
	}
	if img, over := old.RowImage("T", 9); !over || string(img) != "held" {
		t.Fatalf("old snapshot lost its image: img=%q over=%v", img, over)
	}
	old.Release()
	if vs.Size() != 0 {
		t.Fatalf("size = %d after last release, want 0", vs.Size())
	}
}

// TestDropReclaimsGauge: rollback cleanup returns every byte to the gauge
// and clears the per-table counter.
func TestDropReclaimsGauge(t *testing.T) {
	vs := NewVersionStore()
	vs.Record(2, "T", 1, []byte("aaaa"))
	vs.Record(2, "T", 2, nil)
	vs.Drop(2)
	if vs.Size() != 0 || vs.RetainedBytes() != 0 || vs.TableTouched("T") {
		t.Fatalf("size=%d retained=%d touched=%v after Drop",
			vs.Size(), vs.RetainedBytes(), vs.TableTouched("T"))
	}
}

// TestDropLeavesOtherTxns: rolling back one transaction walks only its own
// keys — including a chain it shares with another transaction — and leaves
// every other chain, Size, the gauge and TableTouched exact.
func TestDropLeavesOtherTxns(t *testing.T) {
	vs := NewVersionStore()
	snap := vs.Acquire(0)
	defer snap.Release()
	vs.Record(1, "A", 1, []byte("a1"))
	vs.Record(2, "A", 1, []byte("a1-2")) // shares row 1's chain with txn 1
	vs.Record(2, "A", 2, []byte("a2"))
	vs.Record(2, "B", 1, []byte("b1"))
	vs.Record(3, "C", 1, []byte("c1"))
	vs.Commit(3) // pinned by snap: committed versions stay
	before := vs.RetainedBytes()

	vs.Drop(2)
	if got := vs.Size(); got != 2 {
		t.Fatalf("size = %d after Drop(2), want 2", got)
	}
	if want := before - 3*versionOverhead - int64(len("a1-2")+len("a2")+len("b1")); vs.RetainedBytes() != want {
		t.Fatalf("retained = %d after Drop(2), want %d", vs.RetainedBytes(), want)
	}
	if !vs.TableTouched("A") || vs.TableTouched("B") || !vs.TableTouched("C") {
		t.Fatalf("touched A=%v B=%v C=%v, want true false true",
			vs.TableTouched("A"), vs.TableTouched("B"), vs.TableTouched("C"))
	}
	if img, over := snap.RowImage("A", 1); !over || string(img) != "a1" {
		t.Fatalf("txn 1's version lost: img=%q over=%v", img, over)
	}
	if img, over := snap.RowImage("A", 2); over {
		t.Fatalf("dropped version still read: %q", img)
	}
	if img, over := snap.RowImage("C", 1); !over || string(img) != "c1" {
		t.Fatalf("committed version lost: img=%q over=%v", img, over)
	}
	if p := vs.PendingTxns(); len(p) != 1 || p[0] != 1 {
		t.Fatalf("pending = %v, want [1]", p)
	}

	vs.Drop(1)
	if vs.Size() != 1 || vs.TableTouched("A") {
		t.Fatalf("size=%d touchedA=%v after Drop(1), want 1/false", vs.Size(), vs.TableTouched("A"))
	}
}

// BenchmarkSnapshotGhosts times one ghost pass over one table while tables
// tables each hold chains in-flight versions visible to the snapshot as
// pre-images — the shape of a snapshot read beside writers on other tables.
func BenchmarkSnapshotGhosts(b *testing.B) {
	for _, tc := range []struct{ tables, chains int }{{1, 20}, {4, 20}, {8, 64}} {
		b.Run(fmt.Sprintf("tables=%d/chains=%d", tc.tables, tc.chains), func(b *testing.B) {
			vs := NewVersionStore()
			snap := vs.Acquire(0)
			defer snap.Release()
			img := make([]byte, 64)
			for tb := 0; tb < tc.tables; tb++ {
				for r := 0; r < tc.chains; r++ {
					vs.Record(uint64(tb+1), fmt.Sprintf("t%d", tb), RowID(r+1), img)
				}
			}
			var buf []GhostRow
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = snap.Ghosts("t0", buf[:0], all)
			}
			if len(buf) != tc.chains {
				b.Fatalf("ghosts = %d, want %d", len(buf), tc.chains)
			}
		})
	}
}
