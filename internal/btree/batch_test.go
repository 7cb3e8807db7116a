package btree

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"testing"

	"alwaysencrypted/internal/storage"
)

func (t *Tree) height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// TestInsertBatchSplitsTwoLevels: a batch into an empty tree is a bottom-up
// build, and one large enough to need more leaves than a node has children
// grows the root by two levels at once; a later batch that overflows many
// leaves in one go carries all their splits up. Every entry is in order
// throughout, and the build packs leaves full.
func TestInsertBatchSplitsTwoLevels(t *testing.T) {
	tr := plainTree(1, false)
	const n = maxEntries*maxEntries + 1
	keys := make([][][]byte, n)
	rows := make([]storage.RowID, n)
	for i := range keys {
		v := int64(i * 7919 % n)
		keys[i], rows[i] = intKey(2*v), storage.RowID(i+1)
	}
	if err := tr.InsertBatch(keys, rows); err != nil {
		t.Fatal(err)
	}
	if h := tr.height(); h != 3 {
		t.Fatalf("a %d-key build made a tree of height %d, want 3", n, h)
	}
	leaves := 0
	for leaf := leftmostLeaf(tr.root); leaf != nil; leaf = leaf.next {
		leaves++
	}
	if want := (n + maxEntries - 1) / maxEntries; leaves != want {
		t.Fatalf("build made %d leaves, want %d full ones", leaves, want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 300 odd keys land in 300 different full leaves, and they split.
	more := make([][][]byte, 300)
	moreRows := make([]storage.RowID, 300)
	for i := range more {
		more[i], moreRows[i] = intKey(int64(2*(i*13)+1)), storage.RowID(n+1+i)
	}
	if err := tr.InsertBatch(more, moreRows); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	count := 0
	tr.Ascend(func(e Entry) bool {
		v := int64(binary.BigEndian.Uint64(e.Key[0][1:]) ^ 1<<63)
		if v <= prev {
			t.Fatalf("entry %d: %d after %d", count, v, prev)
		}
		prev = v
		count++
		return true
	})
	if count != n+300 || tr.Len() != count {
		t.Fatalf("%d entries reachable, Len %d, want %d", count, tr.Len(), n+300)
	}
}

// TestInsertBatchUniqueWithinBatch: a unique tree rejects a batch holding
// one key twice under different rows, and takes a pair repeated under the
// same row once, as a second Insert of it would.
func TestInsertBatchUniqueWithinBatch(t *testing.T) {
	tr := plainTree(1, true)
	err := tr.InsertBatch([][][]byte{intKey(1), intKey(2), intKey(1)}, []storage.RowID{1, 2, 3})
	if !errors.Is(err, ErrDuplicate) || tr.Len() != 0 {
		t.Fatalf("in-batch duplicate: %v, %d entries", err, tr.Len())
	}
	if err := tr.InsertBatch([][][]byte{intKey(1), intKey(2), intKey(1)}, []storage.RowID{1, 2, 1}); err != nil || tr.Len() != 2 {
		t.Fatalf("repeated pair: %v, %d entries", err, tr.Len())
	}
	if err := tr.InsertBatch([][][]byte{intKey(2), intKey(3)}, []storage.RowID{2, 3}); err != nil || tr.Len() != 3 {
		t.Fatalf("pair already held: %v, %d entries", err, tr.Len())
	}
	if err := tr.InsertBatch([][][]byte{intKey(3)}, []storage.RowID{1, 2}); err == nil {
		t.Fatal("batch with more rows than keys accepted")
	}
}

// FuzzInsertBatch inserts random batches — small value domains so keys
// repeat, NULL components, unique and non-unique trees — into a tree under
// BinaryOrder or the opaque tokenOrder, and checks it against a sorted-slice
// shadow after every batch.
func FuzzInsertBatch(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 3, 9, 9, 9})
	f.Add([]byte{3, 200, 7, 7, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 2, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opaque, unique := data[0]&1 != 0, data[0]&2 != 0
		ncols := 1 + int(data[0]>>2)%2
		data = data[1:]
		values := map[string]int{}
		orders := make([]ColumnOrder, ncols)
		for c := range orders {
			orders[c] = BinaryOrder{}
			if opaque {
				o := &tokenOrder{t: t, col: c, values: values, perRun: 1 << 30}
				o.begin()
				orders[c] = o
			}
		}
		tr := New(&KeyComparator{Cols: orders}, unique)
		// cell encodes b as a component: 0 is NULL, anything else one of 16
		// values, as order-preserving bytes or as a fresh token.
		var serial uint64
		cell := func(b byte) ([]byte, int) {
			v := int(b % 17)
			if v == 0 {
				return nil, -1
			}
			if !opaque {
				return intKey(int64(v))[0], v
			}
			serial++
			tok := binary.BigEndian.AppendUint64([]byte{0xEE}, serial*0x9E3779B97F4A7C15)
			values[string(tok)] = v
			return tok, v
		}
		var model []modelEntry
		row := storage.RowID(0)
		for len(data) > 0 {
			size := 1 + int(data[0])%64
			data = data[1:]
			var batch []modelEntry
			for ; size > 0 && len(data) >= ncols; size-- {
				e := modelEntry{key: make([][]byte, ncols), vals: make([]int, ncols)}
				for c := range ncols {
					e.key[c], e.vals[c] = cell(data[c])
				}
				data = data[ncols:]
				row += storage.RowID(1 + int(e.vals[0]+1)%3)
				e.row = row
				batch = append(batch, e)
			}
			if len(batch) == 0 {
				break
			}
			dup := false
			for i, e := range batch {
				for _, set := range [][]modelEntry{model, batch[:i]} {
					for _, m := range set {
						dup = dup || unique && cmpPrefix(m.vals, e.vals) == 0
					}
				}
			}
			keys := make([][][]byte, len(batch))
			rows := make([]storage.RowID, len(batch))
			for i, e := range batch {
				keys[i], rows[i] = e.key, e.row
			}
			err := tr.InsertBatch(keys, rows)
			switch {
			case dup && !errors.Is(err, ErrDuplicate):
				t.Fatalf("batch with a held key: %v", err)
			case !dup && err != nil:
				t.Fatalf("batch: %v", err)
			case !dup:
				model = append(model, batch...)
				sort.SliceStable(model, func(i, j int) bool {
					c := cmpPrefix(model[i].vals, model[j].vals)
					return c < 0 || c == 0 && model[i].row < model[j].row
				})
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got, err := tr.ScanRange(nil, nil, true, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, model, func(g Entry, m modelEntry) bool { return g.Row == m.row }) {
				t.Fatalf("tree holds %d entries, model %d, or in another order", len(got), len(model))
			}
		}
	})
}
