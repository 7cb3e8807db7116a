package leakage

import (
	"reflect"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// indexScript runs a fixed insert / seek / range / delete / batch insert
// script over a range index on RND ciphertext of values, then builds a
// second index over all of them in one batch, and returns everything the
// adversary saw cross the enclave boundary in the clear. single is the
// length of the transcript's prefix that the one-key operations made.
func indexScript(t *testing.T, values []int64) (transcript []any, single int) {
	t.Helper()
	key := testKey(t)
	encl := &enclaveCmp{key: key}
	newTree := func() *btree.Tree {
		return btree.New(&btree.KeyComparator{
			Cols: []btree.ColumnOrder{btree.EnclaveOrder{CEK: "K", Enclave: encl}},
		}, false)
	}
	tree := newTree()
	enc := func(i int) [][]byte {
		ct, err := key.Encrypt(sqltypes.Int(values[i]).Encode(), aecrypto.Randomized) // fresh IV every time
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{ct}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	n := len(values)
	for i := range values {
		must(tree.Insert(enc(i), storage.RowID(i+1)))
	}
	for i := 0; i < n; i += 7 {
		_, err := tree.SeekExact(enc(i), 0)
		must(err)
	}
	for i := 0; i+11 < n; i += 13 {
		a, b := i, i+11
		if values[a] > values[b] {
			a, b = b, a
		}
		_, err := tree.ScanRange(enc(a), enc(b), i%2 == 0, i%3 == 0, 0)
		must(err)
	}
	for i := 0; i < n; i += 5 {
		_, err := tree.Delete(enc(i), storage.RowID(i+1))
		must(err)
	}
	for i := 1; i < n; i += 9 {
		_, err := tree.SeekExact(enc(i), 3)
		must(err)
	}
	_, err := tree.ScanRange(nil, enc(n/2), true, false, 0)
	must(err)
	single = len(encl.transcript)
	// The values again under new rows, in batches of 1, 3, ..., 37 keys.
	batch := func(tr *btree.Tree, from, to int) {
		keys := make([][][]byte, 0, to-from)
		rows := make([]storage.RowID, 0, to-from)
		for i := from; i < to; i++ {
			keys, rows = append(keys, enc(i)), append(rows, storage.RowID(n+1+i))
		}
		must(tr.InsertBatch(keys, rows))
	}
	for i, size := 0, 1; i < n; i, size = i+size, size%37+2 {
		batch(tree, i, min(i+size, n))
	}
	// A build: every value into an empty tree in one batch.
	batch(newTree(), 0, n)
	return encl.transcript, single
}

// scriptValues is a value set with ties, large enough that the index splits
// into several levels of nodes.
func scriptValues() []int64 {
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64(i*7919%1009) / 3 // ranks repeat: runs of equal values
	}
	return vals
}

// pairwiseOutcomes is what the per-comparison path — Enclave.Compare once
// per key comparison, the design this index replaced — revealed for
// indexScript(scriptValues()): one −1/0/+1 outcome per call, counted by the
// stand-in on the parent commit.
const pairwiseOutcomes = 19406

// outcomes is the number of −1/0/+1 relations an observation discloses. For
// a search (cells, lo, hi), those between probe and cells beyond what the
// node's own sort order — which the adversary reads off the index — already
// implies: the cell just below the probe, the cell just above it, and the
// two ends of a run of ties. For a sort, one between each cell and the next.
func outcomes(obs any) int {
	if s, ok := obs.(sortObs); ok {
		return max(len(s.perm)-1, 0)
	}
	o := obs.(searchObs)
	n := 0
	if o.lo > 0 {
		n++
	}
	if o.hi < o.cells {
		n++
	}
	if ties := o.hi - o.lo; ties > 2 {
		n += 2
	} else {
		n += ties
	}
	return n
}

// TestIndexTranscriptDependsOnlyOnOrder is the acceptance test for "what
// returns to the host is a deterministic function of the −1/0/+1 relations
// between probe and cells": two value sets with the same ranks and ties but
// different plaintexts (and fresh IVs throughout) put the adversary through
// exactly the same boundary transcript. And the transcript discloses no more
// comparison outcomes than the per-comparison path did for the same script.
func TestIndexTranscriptDependsOnlyOnOrder(t *testing.T) {
	a := scriptValues()
	b := make([]int64, len(a))
	for i, v := range a {
		b[i] = v*v*31 - 1_000_000 // strictly increasing on v >= 0: same ranks, same ties
	}
	ta, single := indexScript(t, a)
	tb, _ := indexScript(t, b)
	if len(ta) == 0 {
		t.Fatal("script made no boundary calls")
	}
	if !reflect.DeepEqual(ta, tb) {
		for i := range ta {
			if i >= len(tb) || ta[i] != tb[i] {
				t.Fatalf("transcripts diverge at call %d of %d/%d: %+v vs %+v", i, len(ta), len(tb), ta[i], tb[min(i, len(tb)-1)])
			}
		}
		t.Fatalf("transcripts differ in length: %d vs %d", len(ta), len(tb))
	}
	// A set with a different order must NOT give the same transcript — the
	// comparison above is not vacuous.
	c := append([]int64(nil), a...)
	c[0], c[1] = c[1]+500, c[0]
	if tc, _ := indexScript(t, c); reflect.DeepEqual(ta, tc) {
		t.Fatal("transcript ignores the order of the values")
	}

	revealed, revealedSingle := 0, 0
	for i, o := range ta {
		revealed += outcomes(o)
		if i < single {
			revealedSingle += outcomes(o)
		}
	}
	t.Logf("%d searches and sorts disclosing %d outcomes; the one-key operations %d and %d (pairwise path: %d calls, one outcome each)",
		len(ta), revealed, single, revealedSingle, pairwiseOutcomes)
	if revealed > pairwiseOutcomes {
		t.Fatalf("node searches disclosed %d outcomes, the pairwise path %d", revealed, pairwiseOutcomes)
	}
}
