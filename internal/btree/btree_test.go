package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

func intKey(vals ...int64) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = sqltypes.Int(v).Encode()
	}
	return out
}

func plainTree(cols int, unique bool) *Tree {
	orders := make([]ColumnOrder, cols)
	for i := range orders {
		orders[i] = BinaryOrder{}
	}
	return New(&KeyComparator{Cols: orders}, unique)
}

func TestInsertSeekExact(t *testing.T) {
	tr := plainTree(1, false)
	for i := int64(0); i < 1000; i++ {
		if err := tr.Insert(intKey(i), storage.RowID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for _, v := range []int64{0, 1, 499, 999} {
		es, err := tr.SeekExact(intKey(v), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != 1 || es[0].Row != storage.RowID(v+1) {
			t.Fatalf("seek %d: %v", v, es)
		}
	}
	if es, _ := tr.SeekExact(intKey(5000), 0); len(es) != 0 {
		t.Fatalf("phantom entries: %v", es)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeysNonUnique(t *testing.T) {
	tr := plainTree(1, false)
	for r := 1; r <= 100; r++ {
		if err := tr.Insert(intKey(7), storage.RowID(r)); err != nil {
			t.Fatal(err)
		}
	}
	es, err := tr.SeekExact(intKey(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 100 {
		t.Fatalf("dup entries = %d", len(es))
	}
	// Limit honored.
	es, _ = tr.SeekExact(intKey(7), 10)
	if len(es) != 10 {
		t.Fatalf("limited = %d", len(es))
	}
}

func TestUniqueRejectsDuplicates(t *testing.T) {
	tr := plainTree(1, true)
	if err := tr.Insert(intKey(1), 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(1), 20); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	// Same key same row is idempotent.
	if err := tr.Insert(intKey(1), 10); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := plainTree(1, false)
	for i := int64(0); i < 500; i++ {
		tr.Insert(intKey(i%50), storage.RowID(i+1))
	}
	// Delete a specific (key,row) pair.
	ok, err := tr.Delete(intKey(7), storage.RowID(8))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	ok, err = tr.Delete(intKey(7), storage.RowID(8))
	if err != nil || ok {
		t.Fatalf("double delete: %v %v", ok, err)
	}
	es, _ := tr.SeekExact(intKey(7), 0)
	for _, e := range es {
		if e.Row == 8 {
			t.Fatal("deleted entry still visible")
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	tr := plainTree(1, false)
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i), storage.RowID(i+1))
	}
	es, err := tr.ScanRange(intKey(10), intKey(20), true, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 11 {
		t.Fatalf("[10,20] = %d entries", len(es))
	}
	es, _ = tr.ScanRange(intKey(10), intKey(20), false, false, 0)
	if len(es) != 9 {
		t.Fatalf("(10,20) = %d entries", len(es))
	}
	es, _ = tr.ScanRange(nil, intKey(5), true, true, 0)
	if len(es) != 6 {
		t.Fatalf("<=5 = %d entries", len(es))
	}
	es, _ = tr.ScanRange(intKey(95), nil, true, true, 0)
	if len(es) != 5 {
		t.Fatalf(">=95 = %d entries", len(es))
	}
}

// TestCompositePrefixSeek models CUSTOMER_NC1: (w_id, d_id, last) prefix
// seek over a 3+-component index.
func TestCompositePrefixSeek(t *testing.T) {
	tr := plainTree(3, false)
	row := storage.RowID(1)
	for w := int64(1); w <= 3; w++ {
		for d := int64(1); d <= 4; d++ {
			for c := int64(0); c < 10; c++ {
				if err := tr.Insert(intKey(w, d, c), row); err != nil {
					t.Fatal(err)
				}
				row++
			}
		}
	}
	// Prefix (2, 3): all 10 third components.
	es, err := tr.SeekExact(intKey(2, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 10 {
		t.Fatalf("prefix seek = %d entries", len(es))
	}
	for _, e := range es {
		w, _ := sqltypes.Decode(e.Key[0])
		d, _ := sqltypes.Decode(e.Key[1])
		if w.I != 2 || d.I != 3 {
			t.Fatalf("wrong partition: %v %v", w, d)
		}
	}
	// Full key seek.
	es, _ = tr.SeekExact(intKey(2, 3, 5), 0)
	if len(es) != 1 {
		t.Fatalf("full seek = %d", len(es))
	}
}

// fakeEnclave decrypts with a key it holds — standing in for the real
// enclave in ordering tests. It answers a node search by definition,
// ordering every cell against the probe.
type fakeEnclave struct {
	key     *aecrypto.CellKey
	calls   int
	missing bool
}

func (f *fakeEnclave) open(cell []byte) (sqltypes.Value, error) {
	pt, err := f.key.Decrypt(cell)
	if err != nil {
		return sqltypes.Value{}, err
	}
	return sqltypes.Decode(pt)
}

func (f *fakeEnclave) EqualRange(cek string, probe []byte, cells [][]byte) (lo, hi int, err error) {
	if f.missing {
		return 0, 0, errors.New("enclave: required CEK not installed")
	}
	f.calls++
	pv, err := f.open(probe)
	if err != nil {
		return 0, 0, err
	}
	for _, cell := range cells {
		cv, err := f.open(cell)
		if err != nil {
			return 0, 0, err
		}
		c, err := sqltypes.Compare(cv, pv)
		if err != nil {
			return 0, 0, err
		}
		if c < 0 {
			lo++
		}
		if c <= 0 {
			hi++
		}
	}
	return lo, hi, nil
}

func (f *fakeEnclave) EqualRanges(cek string, probes [][]byte, runs [][][]byte, bounds []int) error {
	for i, probe := range probes {
		lo, hi, err := f.EqualRange(cek, probe, runs[i])
		if err != nil {
			return err
		}
		bounds[2*i], bounds[2*i+1] = lo, hi
	}
	return nil
}

// Sort orders the cells by definition: every pair compared.
func (f *fakeEnclave) Sort(cek string, cells [][]byte) ([]int, []bool, error) {
	if f.missing {
		return nil, nil, errors.New("enclave: required CEK not installed")
	}
	f.calls++
	vals := make([]sqltypes.Value, len(cells))
	perm := make([]int, len(cells))
	for i, cell := range cells {
		v, err := f.open(cell)
		if err != nil {
			return nil, nil, err
		}
		vals[i], perm[i] = v, i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		c, _ := sqltypes.Compare(vals[perm[a]], vals[perm[b]])
		return c < 0
	})
	ties := make([]bool, len(cells))
	for k := 1; k < len(perm); k++ {
		c, _ := sqltypes.Compare(vals[perm[k-1]], vals[perm[k]])
		ties[k] = c == 0
	}
	return perm, ties, nil
}

// TestFigure4RangeIndex reproduces Figure 4: a range index over RND
// ciphertext is ordered by plaintext, maintained via enclave comparisons.
func TestFigure4RangeIndex(t *testing.T) {
	root, _ := aecrypto.GenerateKey()
	key := aecrypto.MustCellKey(root)
	encl := &fakeEnclave{key: key}
	tr := New(&KeyComparator{Cols: []ColumnOrder{EnclaveOrder{CEK: "K", Enclave: encl}}}, false)

	enc := func(v int64) [][]byte {
		ct, err := key.Encrypt(sqltypes.Int(v).Encode(), aecrypto.Randomized)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{ct}
	}
	// Insert Figure 4's keys out of order, then key 7 (the figure's insert).
	for i, v := range []int64{6, 2, 8, 4, 1, 9, 3, 5} {
		if err := tr.Insert(enc(v), storage.RowID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := encl.calls
	if err := tr.Insert(enc(7), storage.RowID(100)); err != nil {
		t.Fatal(err)
	}
	if encl.calls == before {
		t.Fatal("insert routed no search to the enclave")
	}
	// Range scan [3,7] by plaintext order over ciphertext bounds.
	es, err := tr.ScanRange(enc(3), enc(7), true, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, e := range es {
		pt, _ := key.Decrypt(e.Key[0])
		v, _ := sqltypes.Decode(pt)
		got = append(got, v.I)
	}
	want := []int64{3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

// TestMissingKeyPropagates: without enclave keys, index navigation fails —
// the condition that forces deferred transactions in recovery (§4.5).
func TestMissingKeyPropagates(t *testing.T) {
	root, _ := aecrypto.GenerateKey()
	key := aecrypto.MustCellKey(root)
	encl := &fakeEnclave{key: key}
	tr := New(&KeyComparator{Cols: []ColumnOrder{EnclaveOrder{CEK: "K", Enclave: encl}}}, false)
	enc := func(v int64) [][]byte {
		ct, _ := key.Encrypt(sqltypes.Int(v).Encode(), aecrypto.Randomized)
		return [][]byte{ct}
	}
	for i := int64(0); i < 10; i++ {
		tr.Insert(enc(i), storage.RowID(i+1))
	}
	encl.missing = true
	if _, err := tr.Delete(enc(5), 6); err == nil {
		t.Fatal("delete succeeded without enclave keys")
	}
	encl.missing = false
	if ok, err := tr.Delete(enc(5), 6); err != nil || !ok {
		t.Fatalf("delete after keys restored: %v %v", ok, err)
	}
}

func TestInvalidate(t *testing.T) {
	tr := plainTree(1, false)
	tr.Insert(intKey(1), 1)
	tr.Invalidate()
	if !tr.Invalidated() {
		t.Fatal("not invalidated")
	}
	if err := tr.Insert(intKey(2), 2); !errors.Is(err, ErrInvalidated) {
		t.Fatalf("insert: %v", err)
	}
	if _, err := tr.SeekExact(intKey(1), 0); !errors.Is(err, ErrInvalidated) {
		t.Fatalf("seek: %v", err)
	}
	if _, err := tr.Delete(intKey(1), 1); !errors.Is(err, ErrInvalidated) {
		t.Fatalf("delete: %v", err)
	}
	if err := tr.Ascend(func(Entry) bool { return true }); !errors.Is(err, ErrInvalidated) {
		t.Fatalf("ascend: %v", err)
	}
}

func TestNullComponentsSortFirst(t *testing.T) {
	tr := plainTree(1, false)
	tr.Insert([][]byte{nil}, 1) // NULL
	tr.Insert(intKey(5), 2)
	tr.Insert(intKey(-5), 3)
	var rows []storage.RowID
	tr.Ascend(func(e Entry) bool {
		rows = append(rows, e.Row)
		return true
	})
	if len(rows) != 3 || rows[0] != 1 {
		t.Fatalf("order = %v (NULL must sort first)", rows)
	}
}

// Property: random insert/delete sequences keep the tree consistent with a
// shadow model and preserve ordering invariants.
func TestQuickTreeAgainstShadow(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := plainTree(1, false)
		type pair struct {
			k int64
			r storage.RowID
		}
		var shadow []pair
		nextRow := storage.RowID(1)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) < 2 || len(shadow) == 0 {
				k := int64(rng.Intn(60))
				if err := tr.Insert(intKey(k), nextRow); err != nil {
					return false
				}
				shadow = append(shadow, pair{k, nextRow})
				nextRow++
			} else {
				i := rng.Intn(len(shadow))
				p := shadow[i]
				ok, err := tr.Delete(intKey(p.k), p.r)
				if err != nil || !ok {
					return false
				}
				shadow = append(shadow[:i], shadow[i+1:]...)
			}
		}
		if tr.Len() != len(shadow) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		// Every shadow pair findable; counts per key match.
		counts := make(map[int64]int)
		for _, p := range shadow {
			counts[p.k]++
		}
		for k, want := range counts {
			es, err := tr.SeekExact(intKey(k), 0)
			if err != nil || len(es) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScanRange over random data returns exactly the shadow-filtered,
// sorted result.
func TestQuickScanRangeMatchesShadow(t *testing.T) {
	prop := func(seed int64, loRaw, hiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := plainTree(1, false)
		var keys []int64
		for i := 0; i < 200; i++ {
			k := int64(rng.Intn(100))
			keys = append(keys, k)
			if err := tr.Insert(intKey(k), storage.RowID(i+1)); err != nil {
				return false
			}
		}
		lo, hi := int64(loRaw%100), int64(hiRaw%100)
		if lo > hi {
			lo, hi = hi, lo
		}
		es, err := tr.ScanRange(intKey(lo), intKey(hi), true, true, 0)
		if err != nil {
			return false
		}
		var want []int64
		for _, k := range keys {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(es) != len(want) {
			return false
		}
		for i, e := range es {
			v, _ := sqltypes.Decode(e.Key[0])
			if v.I != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTreeDepth(t *testing.T) {
	tr := plainTree(1, false)
	const n = 50000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i, v := range perm {
		if err := tr.Insert(intKey(int64(v)), storage.RowID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	es, err := tr.ScanRange(intKey(1000), intKey(1009), true, true, 0)
	if err != nil || len(es) != 10 {
		t.Fatalf("range: %d %v", len(es), err)
	}
}

func BenchmarkInsertPlainKey(b *testing.B) {
	tr := plainTree(1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(intKey(int64(i)), storage.RowID(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeekExact(b *testing.B) {
	tr := plainTree(1, false)
	for i := int64(0); i < 100000; i++ {
		tr.Insert(intKey(i), storage.RowID(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.SeekExact(intKey(int64(i%100000)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleTree() {
	tr := New(&KeyComparator{Cols: []ColumnOrder{BinaryOrder{}}}, false)
	for _, v := range []int64{6, 8, 2, 4} {
		tr.Insert([][]byte{sqltypes.Int(v).Encode()}, storage.RowID(v))
	}
	tr.Insert([][]byte{sqltypes.Int(7).Encode()}, 7) // Figure 4's insert
	tr.Ascend(func(e Entry) bool {
		v, _ := sqltypes.Decode(e.Key[0])
		fmt.Print(v.I, " ")
		return true
	})
	// Output: 2 4 6 7 8
}
