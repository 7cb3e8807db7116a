package engine

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// tableState is everything a failed statement must leave as it was: the
// heap's rows and every index's entries, in order.
func tableState(t *testing.T, e *Engine, table string) (heap []btree.Entry, indexes map[string][]btree.Entry) {
	t.Helper()
	tbl, err := e.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
		heap = append(heap, btree.Entry{Key: [][]byte{append([]byte(nil), rec...)}, Row: rid})
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	indexes = map[string][]btree.Entry{}
	for _, idx := range tbl.Indexes {
		indexes[idx.Name] = indexEntries(t, e, idx.Name)
	}
	return heap, indexes
}

func sameState(t *testing.T, what string, heapA, heapB []btree.Entry, idxA, idxB map[string][]btree.Entry) {
	t.Helper()
	eq := func(a, b btree.Entry) bool { return a.Row == b.Row && slices.EqualFunc(a.Key, b.Key, bytes.Equal) }
	if !slices.EqualFunc(heapA, heapB, eq) {
		t.Fatalf("%s: heap holds %d rows, was %d, or others", what, len(heapB), len(heapA))
	}
	for name, entries := range idxA {
		if !slices.EqualFunc(entries, idxB[name], eq) {
			t.Fatalf("%s: index %s holds %d entries, was %d, or others", what, name, len(idxB[name]), len(entries))
		}
	}
}

// TestBulkInsertDuplicateFailsAsOneStatement: a bulk batch with a key
// repeated inside it — on the primary key, which the batch reaches first,
// or on a unique enclave-ordered index reached after two others took the
// batch — or one that repeats a key the table holds, fails as one
// statement: the heap and every index are as they were.
func TestBulkInsertDuplicateFailsAsOneStatement(t *testing.T) {
	env := setupRNDTable(t, false)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	env.mustExec("CREATE UNIQUE INDEX ux_val ON T (value)", nil)
	enc := func(v int64) []byte { return env.enc("CEK1", sqltypes.Int(v), aecrypto.Randomized) }
	batch := func(ids, vals []int64) [][][]byte {
		rows := make([][][]byte, len(ids))
		for i := range ids {
			rows[i] = [][]byte{intParam(ids[i]), enc(vals[i])}
		}
		return rows
	}
	seq := func(from, n int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = from + int64(i)
		}
		return out
	}
	if _, err := env.session.BulkInsert("T", []string{"id", "value"}, batch(seq(1, 100), seq(1001, 100))); err != nil {
		t.Fatal(err)
	}
	heap, indexes := tableState(t, env.engine, "T")

	pkDup := seq(200, 64)
	pkDup[40] = 210
	valDup := seq(5000, 64)
	valDup[50] = 5007
	heldVal := seq(5000, 64)
	heldVal[63] = 1042
	for _, tc := range []struct {
		name      string
		ids, vals []int64
	}{
		{"in-batch primary key duplicate", pkDup, seq(5000, 64)},
		{"in-batch duplicate on the unique enclave index", seq(200, 64), valDup},
		{"duplicate of a held value", seq(200, 64), heldVal},
	} {
		_, err := env.session.BulkInsert("T", []string{"id", "value"}, batch(tc.ids, tc.vals))
		if !errors.Is(err, btree.ErrDuplicate) {
			t.Fatalf("%s: err = %v, want ErrDuplicate", tc.name, err)
		}
		h, idx := tableState(t, env.engine, "T")
		sameState(t, tc.name, heap, h, indexes, idx)
	}
	if _, err := env.session.BulkInsert("T", []string{"id", "value"}, batch(seq(200, 64), seq(5000, 64))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ix_val", "ux_val"} {
		matchesHeap(t, env.engine, name)
	}
}

// TestCreateIndexMatchesPerRowBuild: CREATE INDEX over existing encrypted
// rows — repeated values, NULLs, a single and a mixed-order composite key —
// builds in one batch exactly the entries, in the same order, that
// inserting the heap's rows one at a time into an empty tree gives.
func TestCreateIndexMatchesPerRowBuild(t *testing.T) {
	env := setupRNDTable(t, false)
	var rows [][][]byte
	for id := int64(1); id <= 700; id++ {
		var v []byte // every 13th value NULL
		if id%13 != 0 {
			v = env.enc("CEK1", sqltypes.Int(id*7919%97), aecrypto.Randomized)
		}
		rows = append(rows, [][]byte{intParam(id), v})
	}
	if _, err := env.session.BulkInsert("T", []string{"id", "value"}, rows); err != nil {
		t.Fatal(err)
	}
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	env.mustExec("CREATE INDEX ix_mix ON T (value, id)", nil)
	tbl, err := env.engine.Catalog().Table("T")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ix_val", "ix_mix"} {
		idx, err := env.engine.Catalog().Index(name)
		if err != nil {
			t.Fatal(err)
		}
		perRow, _, _, err := env.engine.buildIndexTree(tbl, idx.ColPos, idx.Unique)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
			cells, err := decodeRow(rec)
			if err != nil {
				return false, err
			}
			return true, perRow.Insert(copyKey(idx.indexKeyFor(cells)), rid)
		}); err != nil {
			t.Fatal(err)
		}
		var want []btree.Entry
		perRow.Ascend(func(e btree.Entry) bool { want = append(want, e); return true })
		got := indexEntries(t, env.engine, name)
		if len(got) != 700 || !slices.EqualFunc(got, want, func(a, b btree.Entry) bool {
			return a.Row == b.Row && slices.EqualFunc(a.Key, b.Key, bytes.Equal)
		}) {
			t.Fatalf("%s: CREATE INDEX built %d entries, the per-row build %d, or in another order", name, len(got), len(want))
		}
		if err := idx.Tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
