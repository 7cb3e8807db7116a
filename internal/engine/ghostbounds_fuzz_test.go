package engine

import (
	"testing"

	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/storage"
)

// FuzzGhostBounds: the ghost pass's pruning admits a pre-image key exactly
// when the seek it bounds — resolved by the same readSide.seekIndex over a
// btree.BinaryOrder tree holding that key among others — returns it. Keys
// and bound values are short cells over a three-letter alphabet (so equal
// and prefix-related cells are common), NULL included; the access path is an
// equality prefix, optionally followed by a range under each operator the
// planner emits. A NULL parameter matches nothing: no entry, no ghost.
func FuzzGhostBounds(f *testing.F) {
	f.Add([]byte{2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 0, 4, 1, 2})
	f.Add([]byte{1, 0, 2, 1, 2, 0, 1, 1, 1, 2, 0, 1, 2})
	f.Add([]byte{2, 3, 0, 1, 2, 1, 0, 2, 2, 2, 1, 1, 1, 4, 2, 1, 1, 2, 2})
	ops := []PredOp{PredGT, PredGE, PredLT, PredLE, PredBetween}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cell := func() []byte {
			c := make([]byte, next()%4) // length 0: NULL
			for i := range c {
				c[i] = "\x00a\xff"[next()%3]
			}
			if len(c) == 0 {
				return nil
			}
			return c
		}

		// Index component c lives at row position n-c; position 0 is a
		// non-key cell, so rowCell has to skip cells to find each key.
		n := 1 + next()%3
		colPos := make([]int, n)
		host := make([]bool, n)
		orders := make([]btree.ColumnOrder, n)
		for c := range colPos {
			colPos[c], host[c], orders[c] = n-c, true, btree.BinaryOrder{}
		}
		tree := btree.New(&btree.KeyComparator{Cols: orders}, false)
		idx := &Index{Name: "ix", ColPos: colPos, Tree: tree}

		row := make([][]byte, n+1)
		row[0] = []byte("payload")
		key := make([][]byte, n)
		for c := range key {
			key[c] = cell()
			row[colPos[c]] = key[c]
		}
		const target = storage.RowID(1)
		if err := tree.Insert(key, target); err != nil {
			t.Fatal(err)
		}
		for r := storage.RowID(2); r < 2+storage.RowID(next()%4); r++ {
			other := make([][]byte, n)
			for c := range other {
				other[c] = cell()
			}
			if err := tree.Insert(other, r); err != nil {
				t.Fatal(err)
			}
		}

		params := Params{}
		param := func(name string) ValueExpr {
			params[name] = cell()
			return ParamExpr{Name: name}
		}
		a := accessPath{index: idx, host: host, rangeOn: -1}
		for c := 0; c < next()%(n+1); c++ {
			a.eqVals = append(a.eqVals, param(string(rune('a'+c))))
		}
		if len(a.eqVals) < n && next()%2 == 1 {
			a.rangeOn, a.rangeOp = len(a.eqVals), ops[next()%len(ops)]
			if a.rangeOp != PredLT && a.rangeOp != PredLE {
				a.rangeLo = param("lo")
			}
			if a.rangeOp != PredGT && a.rangeOp != PredGE {
				a.rangeHi = param("hi")
			}
		}

		var side readSide
		if err := side.seekIndex(nil, &a, params); err != nil {
			t.Fatal(err)
		}
		returned := false
		for _, e := range side.entries {
			returned = returned || e.Row == target
		}
		admitted := !side.none && side.bounds.admits(encodeRow(row))
		if side.none && len(side.entries) != 0 {
			t.Fatalf("NULL parameter seek returned %d entries", len(side.entries))
		}
		if admitted != returned {
			t.Fatalf("key %q under bounds %+v: admitted %v, seek returned %v", key, side.bounds, admitted, returned)
		}
	})
}
