package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"alwaysencrypted/internal/storage"
)

// TestUniqueRejectsDuplicateLeftOfStaleSeparator is the regression test for
// a unique tree accepting a duplicate key. Lazy deletion lets a separator
// outlive the entry it was copied from; a key re-inserted under a smaller
// row id then lands LEFT of that separator, and a lookup that descends past
// separators equal to the key — which the unique check used to do — looks
// only to its right and misses it.
func TestUniqueRejectsDuplicateLeftOfStaleSeparator(t *testing.T) {
	tr := plainTree(1, true)
	for i := int64(0); i <= maxEntries; i++ {
		if err := tr.Insert(intKey(i), storage.RowID(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.root.leaf {
		t.Fatal("root did not split")
	}
	sep := tr.root.seps[0]
	if ok, err := tr.Delete(sep.Key, sep.Row); err != nil || !ok {
		t.Fatalf("delete the separator's source entry: %v %v", ok, err)
	}
	if err := tr.Insert(sep.Key, sep.Row-50); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(sep.Key, sep.Row+50); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second insert of the key: err = %v, want ErrDuplicate", err)
	}
	if es, err := tr.SeekExact(sep.Key, 0); err != nil || len(es) != 1 || es[0].Row != sep.Row-50 {
		t.Fatalf("seek: %v %v", es, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tokenOrder is a ColumnOrder over opaque cells: each cell is a random token
// whose byte order says nothing about the value it stands for (as with RND
// ciphertext), and only the table resolves it. It counts and polices the
// searches the tree puts to it.
type tokenOrder struct {
	t      *testing.T
	col    int
	values map[string]int
	// lead marks the components before col that are BinaryOrder: when one of
	// them differs between probe and node, the position is decided without
	// this order.
	lead []bool

	probe  [][]byte       // the key of the operation in flight
	calls  int            // searches put to this order during it
	seen   map[runKey]int // (node run, probe cell) → times searched
	perRun int            // how often one operation may search one run for one cell
}

type runKey struct {
	first *Entry
	n     int
	probe *byte
}

func (o *tokenOrder) begin(probe ...[][]byte) {
	o.probe, o.calls, o.seen = nil, 0, map[runKey]int{}
	for _, p := range probe {
		if p != nil {
			o.probe = p // for lead checks any one bound will do: they share the lead
		}
	}
}

func (o *tokenOrder) value(cell []byte) int {
	v, ok := o.values[string(cell)]
	if !ok {
		o.t.Fatalf("order asked about a cell it never issued: %x", cell)
	}
	return v
}

func (o *tokenOrder) EqualRange(probe []byte, cells Cells) (int, int, error) {
	o.calls++
	n := cells.Len()
	if n == 0 {
		o.t.Fatal("search over an empty run reached the column order")
	}
	if len(probe) == 0 {
		o.t.Fatal("NULL probe reached the column order")
	}
	k := runKey{&cells.run[0], n, &probe[0]}
	if o.seen[k]++; o.seen[k] > o.perRun {
		o.t.Fatalf("node run searched %d times for one probe cell", o.seen[k])
	}
	pv := o.value(probe)
	lo, hi := 0, 0
	for i := 0; i < n; i++ {
		cell := cells.At(i)
		if len(cell) == 0 {
			o.t.Fatal("NULL cell reached the column order")
		}
		for c, binary := range o.lead {
			if binary && c < len(o.probe) && string(cells.run[i].Key[c]) != string(o.probe[c]) {
				o.t.Fatalf("component %d searched although plaintext component %d had decided", o.col, c)
			}
		}
		v := o.value(cell)
		if v < pv {
			lo++
		}
		if v <= pv {
			hi++
		}
	}
	return lo, hi, nil
}

// modelEntry is one entry of the sorted-slice model: component values with
// -1 for NULL, which sorts first.
type modelEntry struct {
	vals []int
	row  storage.RowID
	key  [][]byte
}

// cmpPrefix orders an entry against a probe on the probe's components.
func cmpPrefix(e []int, probe []int) int {
	for i := range probe {
		if e[i] != probe[i] {
			if e[i] < probe[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

type diffConfig struct {
	name    string
	opaque  []bool // per component: opaque cells under a tokenOrder (else BinaryOrder)
	domain  []int
	nulls   float64
	unique  bool
	inserts int
}

// TestDifferentialAgainstSortedSlice drives seeded scripts of Insert, Delete,
// SeekExact, SeekGE and ScanRange (both inclusivities, open bounds, prefixes,
// limits) against a sorted-slice model, over plaintext-ordered and
// opaque-ordered components, checking the tree's shape after every mutation
// and the number of searches every operation put to an opaque order.
func TestDifferentialAgainstSortedSlice(t *testing.T) {
	shapes := []diffConfig{
		{name: "single", opaque: []bool{true}, domain: []int{600}, inserts: 900},
		{name: "plainlead-encmiddle", opaque: []bool{false, true, false}, domain: []int{3, 40, 6}, inserts: 900},
		{name: "nulls", opaque: []bool{true, true}, domain: []int{7, 7}, nulls: 0.25, inserts: 700},
		{name: "duplicates-straddling-splits", opaque: []bool{true}, domain: []int{4}, inserts: 700},
		{name: "unique", opaque: []bool{true, false}, domain: []int{40, 40}, unique: true, inserts: 900},
	}
	for _, shape := range shapes {
		for _, opaque := range []bool{false, true} {
			cfg := shape
			if !opaque {
				cfg.opaque = make([]bool, len(shape.opaque))
				cfg.name += "/binary"
			} else {
				cfg.name += "/opaque"
			}
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) { runDifferential(t, cfg, seed) })
			}
		}
	}
}

func runDifferential(t *testing.T, cfg diffConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	values := map[string]int{}
	orders := make([]ColumnOrder, len(cfg.opaque))
	var opaque []*tokenOrder
	lead := make([]bool, 0, len(cfg.opaque))
	for c, isOpaque := range cfg.opaque {
		if isOpaque {
			o := &tokenOrder{t: t, col: c, values: values, lead: append([]bool(nil), lead...), perRun: 1}
			if cfg.unique {
				// Insert into a unique tree is two operations on the same
				// key: the point scan for a holder, then the insert.
				o.perRun = 2
			}
			orders[c], opaque = o, append(opaque, o)
		} else {
			orders[c] = BinaryOrder{}
		}
		lead = append(lead, !isOpaque)
	}
	tr := New(&KeyComparator{Cols: orders}, cfg.unique)

	// cell encodes component c's value: order-preserving bytes for a
	// BinaryOrder component, a fresh random token for an opaque one.
	cell := func(c, v int) []byte {
		if v < 0 {
			return nil
		}
		if !cfg.opaque[c] {
			return intKey(int64(v))[0]
		}
		tok := make([]byte, 8)
		rng.Read(tok)
		values[string(tok)] = v
		return tok
	}
	mkKey := func(vals []int) [][]byte {
		key := make([][]byte, len(vals))
		for c, v := range vals {
			key[c] = cell(c, v)
		}
		return key
	}
	randVals := func(n int) []int {
		vals := make([]int, n)
		for c := range vals {
			vals[c] = rng.Intn(cfg.domain[c])
			if rng.Float64() < cfg.nulls {
				vals[c] = -1
			}
		}
		return vals
	}

	var model []modelEntry
	height := func() int {
		h := 1
		for n := tr.root; !n.leaf; n = n.children[0] {
			h++
		}
		return h
	}
	begin := func(probe ...[][]byte) {
		for _, o := range opaque {
			o.begin(probe...)
		}
	}
	// budget checks the searches one operation put to each opaque order:
	// one per node on the descent, plus one per extra leaf a scan visited.
	budget := func(op string, descents, results int) {
		t.Helper()
		limit := descents*height() + results + 3
		for _, o := range opaque {
			if o.calls > limit {
				t.Fatalf("%s: %d searches reached component %d's order, budget %d (height %d, %d results)",
					op, o.calls, o.col, limit, height(), results)
			}
		}
	}
	mutated := func(op string) {
		t.Helper()
		begin()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
		if tr.Len() != len(model) {
			t.Fatalf("after %s: Len %d, model %d", op, tr.Len(), len(model))
		}
	}
	sameEntries := func(op string, got []Entry, want []modelEntry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, model %d", op, len(got), len(want))
		}
		for i := range got {
			if got[i].Row != want[i].row {
				t.Fatalf("%s: entry %d is row %d, model row %d", op, i, got[i].Row, want[i].row)
			}
		}
	}
	modelRange := func(lo, hi []int, loInc, hiInc bool, limit int) []modelEntry {
		var out []modelEntry
		for _, e := range model {
			if lo != nil {
				if c := cmpPrefix(e.vals, lo); c < 0 || (c == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				if c := cmpPrefix(e.vals, hi); c > 0 || (c == 0 && !hiInc) {
					continue
				}
			}
			out = append(out, e)
			if limit > 0 && len(out) == limit {
				break
			}
		}
		return out
	}

	nextRow := storage.RowID(1000)
	ncols := len(cfg.opaque)
	for step := 0; step < cfg.inserts*2; step++ {
		switch r := rng.Intn(10); {
		case r < 4 && step < cfg.inserts*2*3/4: // Insert
			vals := randVals(ncols)
			row := nextRow - storage.RowID(rng.Intn(2000)) // rows arrive out of order too
			nextRow += 3
			at := sort.Search(len(model), func(i int) bool {
				c := cmpPrefix(model[i].vals, vals)
				return c > 0 || (c == 0 && model[i].row >= row)
			})
			if at < len(model) && cmpPrefix(model[at].vals, vals) == 0 && model[at].row == row {
				continue // never the same (key, row) twice
			}
			dup := false
			if cfg.unique {
				first := sort.Search(len(model), func(i int) bool { return cmpPrefix(model[i].vals, vals) >= 0 })
				dup = first < len(model) && cmpPrefix(model[first].vals, vals) == 0
			}
			key := mkKey(vals)
			begin(key)
			err := tr.Insert(key, row)
			descents := 1
			if cfg.unique {
				descents = 2 // the point scan, then the insert
			}
			budget("Insert", descents, 0)
			if dup {
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("Insert of a held key: %v", err)
				}
			} else {
				if err != nil {
					t.Fatalf("Insert: %v", err)
				}
				model = append(model, modelEntry{})
				copy(model[at+1:], model[at:])
				model[at] = modelEntry{vals: vals, row: row, key: key}
			}
			mutated("Insert")
		case r < 6: // Delete
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			e := model[i]
			want := true
			row := e.row
			if rng.Intn(4) == 0 {
				row, want = e.row+1, false // right key, no such row (rows step by 3... or collide; check)
				for _, m := range model {
					if m.row == row && cmpPrefix(m.vals, e.vals) == 0 {
						want = true
					}
				}
			}
			// A fresh encoding of the same values: Delete may not rely on
			// being handed the very cells it stored.
			key := mkKey(e.vals)
			begin(key)
			ok, err := tr.Delete(key, row)
			budget("Delete", 1, 0)
			if err != nil || ok != want {
				t.Fatalf("Delete(%v, %d) = %v, %v; want %v", e.vals, row, ok, err, want)
			}
			if ok {
				j := i
				for model[j].row != row || cmpPrefix(model[j].vals, e.vals) != 0 {
					j++
				}
				model = append(model[:j], model[j+1:]...)
			}
			mutated("Delete")
		case r < 8: // SeekExact / SeekGE on a key or a prefix of one
			vals := randVals(1 + rng.Intn(ncols))
			limit := 0
			if rng.Intn(3) == 0 {
				limit = 1 + rng.Intn(5)
			}
			key := mkKey(vals)
			begin(key)
			if rng.Intn(2) == 0 {
				got, err := tr.SeekExact(key, limit)
				if err != nil {
					t.Fatal(err)
				}
				sameEntries(fmt.Sprintf("SeekExact(%v, %d)", vals, limit), got, modelRange(vals, vals, true, true, limit))
				budget("SeekExact", 1, len(got))
			} else {
				got, err := tr.SeekGE(key, limit)
				if err != nil {
					t.Fatal(err)
				}
				sameEntries(fmt.Sprintf("SeekGE(%v, %d)", vals, limit), got, modelRange(vals, nil, true, false, limit))
				budget("SeekGE", 1, len(got))
			}
		default: // ScanRange
			var lo, hi []int
			if rng.Intn(5) != 0 {
				lo = randVals(1 + rng.Intn(ncols))
			}
			if rng.Intn(5) != 0 {
				hi = randVals(1 + rng.Intn(ncols))
				if lo != nil && ncols > 1 && rng.Intn(2) == 0 {
					// The engine's shape: bounds sharing their leading components.
					n := len(lo)
					if len(hi) < n {
						n = len(hi)
					}
					copy(hi[:n-1], lo[:n-1])
				}
			}
			loInc, hiInc := rng.Intn(2) == 0, rng.Intn(2) == 0
			limit := 0
			if rng.Intn(4) == 0 {
				limit = 1 + rng.Intn(8)
			}
			var loKey, hiKey [][]byte
			if lo != nil {
				loKey = mkKey(lo)
			}
			if hi != nil {
				hiKey = mkKey(hi)
			}
			begin() // two probes with unrelated leads: no lead check
			got, err := tr.ScanRange(loKey, hiKey, loInc, hiInc, limit)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(fmt.Sprintf("ScanRange(%v, %v, %v, %v, %d)", lo, hi, loInc, hiInc, limit),
				got, modelRange(lo, hi, loInc, hiInc, limit))
			budget("ScanRange", 1, len(got)+1)
		}
	}
	if height() < 2 {
		t.Fatalf("script never split the root (%d entries)", len(model))
	}
}

// TestFailedSearchLeavesTreeUnchanged: an operation whose node search fails
// (here: the enclave lost its key) changes nothing, whichever node it fails
// in — the property that lets a deferred transaction be retried later.
func TestFailedSearchLeavesTreeUnchanged(t *testing.T) {
	values := map[string]int{}
	order := &failingOrder{tokenOrder: tokenOrder{t: t, values: values, perRun: 1}}
	tr := New(&KeyComparator{Cols: []ColumnOrder{order}}, false)
	rng := rand.New(rand.NewSource(5))
	cell := func(v int) [][]byte {
		tok := make([]byte, 8)
		rng.Read(tok)
		values[string(tok)] = v
		return [][]byte{tok}
	}
	order.begin()
	for i := 0; i < 5000; i++ {
		order.seen = map[runKey]int{}
		if err := tr.Insert(cell(rng.Intn(100000)), storage.RowID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() []Entry {
		var out []Entry
		tr.Ascend(func(e Entry) bool { out = append(out, e); return true })
		return out
	}
	before := snapshot()
	victim := before[len(before)/2]
	for failAt := 1; failAt <= 3; failAt++ { // root, inner node, leaf
		for _, op := range []string{"insert", "delete", "seek", "scan"} {
			order.seen, order.calls, order.failAt = map[runKey]int{}, 0, failAt
			var err error
			switch op {
			case "insert":
				err = tr.Insert(cell(50000), 999999)
			case "delete":
				_, err = tr.Delete(victim.Key, victim.Row)
			case "seek":
				_, err = tr.SeekExact(victim.Key, 0)
			case "scan":
				_, err = tr.ScanRange(cell(100), cell(90000), false, true, 0)
			}
			if !errors.Is(err, errKeyGone) {
				t.Fatalf("%s failing at search %d: %v", op, failAt, err)
			}
			after := snapshot()
			if len(after) != len(before) || tr.Len() != len(before) {
				t.Fatalf("%s failing at search %d changed the entry count", op, failAt)
			}
			for i := range after {
				if after[i].Row != before[i].Row {
					t.Fatalf("%s failing at search %d moved entry %d", op, failAt, i)
				}
			}
		}
	}
	order.failAt = 0
	order.seen = map[runKey]int{}
	if ok, err := tr.Delete(victim.Key, victim.Row); err != nil || !ok {
		t.Fatalf("delete once the key is back: %v %v", ok, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var errKeyGone = errors.New("enclave: required CEK not installed")

// failingOrder fails the failAt-th search of an operation.
type failingOrder struct {
	tokenOrder
	failAt int
}

func (o *failingOrder) EqualRange(probe []byte, cells Cells) (int, int, error) {
	if o.calls+1 == o.failAt {
		o.calls++
		return 0, 0, errKeyGone
	}
	return o.tokenOrder.EqualRange(probe, cells)
}

// TestComparisonsCountsComponentSearches pins what Tree.Comparisons reports:
// one per key component put to its order per node visited.
func TestComparisonsCountsComponentSearches(t *testing.T) {
	tr := plainTree(2, false)
	for i := int64(0); i < 3000; i++ {
		if err := tr.Insert(intKey(i%7, i), storage.RowID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	height := uint64(1)
	for n := tr.root; !n.leaf; n = n.children[0] {
		height++
	}
	before := tr.Comparisons()
	if _, err := tr.SeekExact(intKey(3, 1500), 0); err != nil {
		t.Fatal(err)
	}
	// At most two component searches per node on the path; at least one.
	if d := tr.Comparisons() - before; d < height || d > 2*height {
		t.Fatalf("a point seek through %d levels counted %d component searches", height, d)
	}
	// NULL probes and empty trees are settled on the host.
	empty := plainTree(1, false)
	empty.SeekExact(intKey(1), 0)
	empty.Insert([][]byte{nil}, 1)
	empty.Insert([][]byte{nil}, 2)
	if empty.Comparisons() != 0 {
		t.Fatalf("host-settled searches counted: %d", empty.Comparisons())
	}
}
