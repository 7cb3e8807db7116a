// Package btree implements the B+-tree used for both index flavors of §3.1:
//
//   - Equality indexes on DET columns order keys by ciphertext bytes
//     (BinaryOrder), supporting equality lookups but not ranges.
//   - Range indexes on enclave-enabled RND columns store ciphertext but
//     order it by plaintext value, routing every node search to the enclave
//     (EnclaveOrder), as Figure 4 illustrates for inserting key 7.
//
// Keys are composite ([][]byte components) so mixed indexes like TPC-C's
// CUSTOMER_NC1(C_W_ID, C_D_ID, C_LAST, C_FIRST, C_ID) — with only C_LAST
// encrypted — search each component under its own order. The vast majority
// of index machinery (splits, iteration, the leaf chain) is oblivious to
// encryption; only the order that answers a node search differs, mirroring
// §3.1.2's note that latching, locking and page splits remain unaffected.
//
// Every operation positions itself inside a node — a leaf's records or an
// inner node's separators — through one primitive, Tree.search: the equal
// range of the probe key within the node, narrowed one key component at a
// time. An enclave-ordered component costs one enclave call per node, not
// one per comparison; what comes back is the pair (lo, hi), a function of
// the −1/0/+1 relations between the probe and the node's cells and nothing
// else (DESIGN.md, "Encrypted index navigation").
//
// Deletion is lazy (no rebalancing): removed entries leave leaves sparse,
// which keeps logical undo — the operation recovery performs — simple while
// preserving all ordering invariants. A separator may therefore outlive the
// entry it was copied from; it stays a valid bound, and no lookup may assume
// a key equal to a separator lives to its right.
package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"alwaysencrypted/internal/storage"
)

// Cells is a read-only view of one key component across a run of node
// entries (leaf records or separators). It is a plain value — handing it to
// a ColumnOrder allocates nothing, so plaintext trees search for free.
type Cells struct {
	run []Entry
	col int
}

// Len reports the number of cells in the run.
func (c Cells) Len() int { return len(c.run) }

// At returns cell i.
func (c Cells) At(i int) []byte { return c.run[i].Key[c.col] }

// same reports whether c and d are the same cells of the same node.
func (c Cells) same(d Cells) bool {
	return c.col == d.col && len(c.run) == len(d.run) && (len(c.run) == 0 || &c.run[0] == &d.run[0])
}

// nulls counts the run's NULL cells, which form a prefix of it.
func (c Cells) nulls() int {
	if len(c.run) == 0 || len(c.run[0].Key[c.col]) != 0 {
		return 0 // the common case, kept small enough to inline
	}
	return c.nullPrefix()
}

// nullPrefix is nulls for a run that starts with a NULL cell.
func (c Cells) nullPrefix() int {
	nulls := 1
	for end := c.Len(); nulls < end; {
		mid := int(uint(nulls+end) >> 1)
		if len(c.At(mid)) == 0 {
			nulls = mid + 1
		} else {
			end = mid
		}
	}
	return nulls
}

// ColumnOrder orders one key component. It answers the questions a node
// search asks: where does a probe cell fall in a run of cells — for one
// probe, or for a batch of probes each against its own run — and, for a
// batch insert, how do the batch's own cells order among themselves?
type ColumnOrder interface {
	// EqualRange returns lo <= hi such that cells [0,lo) sort below probe,
	// [lo,hi) equal it and [hi,Len) sort above it. The cells ascend under
	// this order; neither they nor probe are NULL (the tree keeps NULLs,
	// recognisable by length, to itself).
	EqualRange(probe []byte, cells Cells) (lo, hi int, err error)
	// EqualRanges answers len(probes) searches at once: search i is
	// EqualRange(probes[i], runs[i]), its answer written to bounds[2i] and
	// bounds[2i+1]. A batch insert asks it once per tree level.
	EqualRanges(probes [][]byte, runs []Cells, bounds []int) error
	// Rank orders a batch's cells (none NULL) among themselves: ranks[i] <
	// ranks[j] exactly when cell i sorts below cell j, equal ranks for equal
	// cells. An order whose cells sort as their bytes returns nil ranks, and
	// the host compares the bytes itself.
	Rank(cells [][]byte) (ranks []int, err error)
}

// BinaryOrder compares raw bytes: the order of plaintext canonical encodings
// (which are order-preserving) and of DET ciphertext (which preserves only
// equality — hence equality indexes support no range lookups, §3.1.1).
type BinaryOrder struct{}

// EqualRange implements ColumnOrder with two host binary searches.
func (BinaryOrder) EqualRange(probe []byte, cells Cells) (int, int, error) {
	n := cells.Len()
	lo, end := 0, n
	for lo < end {
		mid := int(uint(lo+end) >> 1)
		if bytes.Compare(cells.At(mid), probe) < 0 {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	if lo == n || !bytes.Equal(cells.At(lo), probe) {
		return lo, lo, nil
	}
	hi, end := lo+1, n
	for hi < end {
		mid := int(uint(hi+end) >> 1)
		if bytes.Compare(cells.At(mid), probe) <= 0 {
			hi = mid + 1
		} else {
			end = mid
		}
	}
	return lo, hi, nil
}

// EqualRanges implements ColumnOrder: one host search per probe.
func (o BinaryOrder) EqualRanges(probes [][]byte, runs []Cells, bounds []int) error {
	for i, probe := range probes {
		bounds[2*i], bounds[2*i+1], _ = o.EqualRange(probe, runs[i])
	}
	return nil
}

// Rank implements ColumnOrder: the cells' bytes are their own ranks.
func (BinaryOrder) Rank([][]byte) ([]int, error) { return nil, nil }

// EnclaveComparer is the slice of the enclave API the tree needs; satisfied
// by *enclave.Enclave.
type EnclaveComparer interface {
	// EqualRange is ColumnOrder.EqualRange over ciphertext cells of the
	// column encrypted under cekName, answered inside the enclave.
	EqualRange(cekName string, probe []byte, cells [][]byte) (lo, hi int, err error)
	// EqualRanges is EqualRange for many probes, each against its own run of
	// cells, answered in one enclave task: bounds[2i], bounds[2i+1] receive
	// probe i's (lo, hi).
	EqualRanges(cekName string, probes [][]byte, runs [][][]byte, bounds []int) error
	// Sort orders cells inside the enclave and returns only the permutation
	// (perm[k] is the cell in sorted position k) and tie marks (ties[k]: the
	// cell at position k equals the one at k-1).
	Sort(cekName string, cells [][]byte) (perm []int, ties []bool, err error)
}

// EnclaveOrder routes a component's node searches to the enclave, which
// decrypts the probe and the cells it needs and returns where the probe
// falls, in the clear (§3.1.2). The ordering disclosure is the designed
// leakage of Figure 5.
type EnclaveOrder struct {
	CEK     string
	Enclave EnclaveComparer
}

// EqualRange implements ColumnOrder with one enclave call: the probe and
// this component's cells of the node cross, (lo, hi) comes back.
func (o EnclaveOrder) EqualRange(probe []byte, cells Cells) (int, int, error) {
	cts := make([][]byte, cells.Len())
	for i := range cts {
		cts[i] = cells.At(i)
	}
	return o.Enclave.EqualRange(o.CEK, probe, cts)
}

// EqualRanges implements ColumnOrder with one enclave call for all probes.
// Consecutive searches of the same run — a batch's keys in one node — share
// one copy of its cells.
func (o EnclaveOrder) EqualRanges(probes [][]byte, runs []Cells, bounds []int) error {
	cts := make([][][]byte, len(runs))
	for i, r := range runs {
		if i > 0 && r.same(runs[i-1]) {
			cts[i] = cts[i-1]
			continue
		}
		cts[i] = make([][]byte, r.Len())
		for j := range cts[i] {
			cts[i][j] = r.At(j)
		}
	}
	return o.Enclave.EqualRanges(o.CEK, probes, cts, bounds)
}

// Rank implements ColumnOrder with one enclave sort of the cells.
func (o EnclaveOrder) Rank(cells [][]byte) ([]int, error) {
	perm, ties, err := o.Enclave.Sort(o.CEK, cells)
	if err != nil {
		return nil, err
	}
	n := len(cells)
	if len(perm) != n || len(ties) != n {
		return nil, fmt.Errorf("btree: enclave sorted %d of %d cells", len(perm), n)
	}
	ranks := make([]int, n)
	placed := make([]bool, n)
	rank := 0
	for k, i := range perm {
		if i < 0 || i >= n || placed[i] {
			return nil, errors.New("btree: enclave sort is not a permutation")
		}
		if k > 0 && !ties[k] {
			rank++
		}
		ranks[i], placed[i] = rank, true
	}
	return ranks, nil
}

// KeyComparator orders composite keys component-wise. A key with fewer
// components than the comparator acts as a prefix: a search covers only the
// components it has, which gives Seek its prefix semantics.
type KeyComparator struct {
	Cols []ColumnOrder
}

// equalRun narrows run to the entries whose leading len(key) components
// equal key, one component at a time, and returns that range [lo, hi) —
// empty (lo == hi) at the slot key would take. NULL components (empty) sort
// first and are told apart by length, here on the host; only a non-NULL
// probe cell facing at least one non-NULL cell is put to its ColumnOrder.
// searches counts those calls. Once a leading component has emptied the
// range the position is decided and later components are never consulted.
func (kc *KeyComparator) equalRun(key [][]byte, run []Entry) (lo, hi, searches int, err error) {
	if len(key) > len(kc.Cols) {
		return 0, 0, 0, fmt.Errorf("btree: key has %d components, comparator %d", len(key), len(kc.Cols))
	}
	lo, hi = 0, len(run)
	for c := 0; c < len(key) && lo < hi; c++ {
		cells := Cells{run: run[lo:hi], col: c}
		n := cells.Len()
		nulls := cells.nulls()
		l, h := nulls, nulls
		switch {
		case len(key[c]) == 0:
			l = 0
		case nulls < n:
			searches++
			cells.run = cells.run[nulls:]
			l, h, err = kc.Cols[c].EqualRange(key[c], cells)
			if err == nil && !validAnswer(l, h, n-nulls) {
				err = badAnswer(c, l, h, n-nulls)
			}
			if err != nil {
				return 0, 0, searches, err
			}
			l, h = l+nulls, h+nulls
		}
		lo, hi = lo+l, lo+h
	}
	return lo, hi, searches, nil
}

// equalRuns is equalRun for a batch of full keys, each in its own run:
// bounds[2i] and bounds[2i+1] receive key i's range. Each component's order
// is asked once for every key its leading components left undecided — for
// an enclave-ordered component, one enclave task per call, however many keys
// and nodes it covers. searches counts the keys put to an order, as equalRun
// counts them one at a time.
func (kc *KeyComparator) equalRuns(keys [][][]byte, runs [][]Entry, bounds []int, s *runSearch) (searches int, err error) {
	for i := range keys {
		bounds[2*i], bounds[2*i+1] = 0, len(runs[i])
	}
	probes, cells, who, answers := s.probes, s.cells, s.who, s.answers
	defer func() { s.probes, s.cells, s.who, s.answers = probes, cells, who, answers }()
	for c, col := range kc.Cols {
		probes, cells, who = probes[:0], cells[:0], who[:0]
		for i, key := range keys {
			lo, hi := bounds[2*i], bounds[2*i+1]
			if lo == hi {
				continue
			}
			run := Cells{run: runs[i][lo:hi], col: c}
			nulls := run.nulls()
			switch {
			case len(key[c]) == 0:
				bounds[2*i+1] = lo + nulls
			case nulls == run.Len():
				bounds[2*i] = hi
			default:
				bounds[2*i] = lo + nulls
				probes = append(probes, key[c])
				cells = append(cells, Cells{run: run.run[nulls:], col: c})
				who = append(who, i)
			}
		}
		if len(probes) == 0 {
			continue
		}
		searches += len(probes)
		answers = slices.Grow(answers[:0], 2*len(probes))[:2*len(probes)]
		if err := col.EqualRanges(probes, cells, answers); err != nil {
			return searches, err
		}
		for j, i := range who {
			l, h := answers[2*j], answers[2*j+1]
			if !validAnswer(l, h, cells[j].Len()) {
				return searches, badAnswer(c, l, h, cells[j].Len())
			}
			bounds[2*i], bounds[2*i+1] = bounds[2*i]+l, bounds[2*i]+h
		}
	}
	return searches, nil
}

// runSearch holds the buffers equalRuns gathers each component's searches
// in, kept across the calls of one batch.
type runSearch struct {
	probes  [][]byte
	cells   []Cells
	who     []int
	answers []int
}

// validAnswer reports whether (lo, hi) is a range of a run of n cells.
func validAnswer(lo, hi, n int) bool {
	return uint(lo) <= uint(hi) && uint(hi) <= uint(n)
}

func badAnswer(c, lo, hi, n int) error {
	return fmt.Errorf("btree: component %d order answered (%d,%d) over %d cells", c, lo, hi, n)
}

// Entry is one index record: a composite key plus the heap row it points to.
type Entry struct {
	Key [][]byte
	Row storage.RowID
}

// Errors returned by tree operations.
var (
	ErrDuplicate = errors.New("btree: duplicate key in unique index")
	// ErrInvalidated is returned by every operation after the index was
	// invalidated (§4.5), until a rebuild replaces it.
	ErrInvalidated = errors.New("btree: index invalidated; rebuild required")
)

const maxEntries = 64 // fan-out; splits at maxEntries+1

// Tree is the B+-tree. A coarse tree latch serializes structural changes;
// reads take the shared latch. (Fine-grained latching is orthogonal to the
// encryption design and elided.)
type Tree struct {
	mu     sync.RWMutex
	cmp    *KeyComparator
	root   *node
	unique bool
	size   int
	// comparisons counts component searches (atomic: readers under the
	// shared latch search too); the leakage harness uses it, and it shows
	// how much work routes through the enclave.
	comparisons atomic.Uint64
	// invalidated is written under the exclusive latch and read without it
	// too: writers ask every index of their table whether it is usable
	// inside the table mutex, and must not queue there behind a tree
	// operation that is waiting on the enclave.
	invalidated atomic.Bool
}

type node struct {
	leaf bool
	// entries holds the records of a leaf.
	entries []Entry
	// seps are full (key, row) separators of an inner node: everything under
	// children[i] sorts below seps[i], everything under children[i+1] at or
	// above it. Carrying the row id keeps descent exact for duplicate keys
	// that straddle a split boundary.
	seps     []Entry
	children []*node // inner only
	next     *node   // leaf chain
}

// New creates a tree with the given component orders.
func New(cmp *KeyComparator, unique bool) *Tree {
	return &Tree{cmp: cmp, root: &node{leaf: true}, unique: unique}
}

// Len reports the number of entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Comparisons reports how many component searches have been performed: one
// per key component put to its ColumnOrder per node visited — for an
// enclave-ordered component, one enclave call. Components settled on the
// host (NULLs, an empty node, a range a leading component already emptied)
// are not counted.
func (t *Tree) Comparisons() uint64 {
	return t.comparisons.Load()
}

// Invalidate marks the index unusable: the server could not maintain it
// (work that needs keys its enclave lacks), so it is neither read nor written
// until rebuilt (§4.5's escape hatch).
func (t *Tree) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invalidated.Store(true)
	t.root = &node{leaf: true}
	t.size = 0
}

// Replace takes over src's entries, comparator and state under t's latch. A
// rebuild fills a fresh tree and then replaces the published one, so holders
// of the published pointer never see a partial fill. src must not be used
// afterwards.
func (t *Tree) Replace(src *Tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cmp, t.root, t.unique, t.size = src.cmp, src.root, src.unique, src.size
	t.invalidated.Store(src.invalidated.Load())
}

// Invalidated reports whether the index has been invalidated.
func (t *Tree) Invalidated() bool {
	return t.invalidated.Load()
}

// SwapEnclave repoints every EnclaveOrder component at a new comparer. A
// restarted enclave holds no keys; the index structure survives (physical
// redo) but searches route to the new instance.
func (t *Tree) SwapEnclave(ec EnclaveComparer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.cmp.Cols {
		if eo, ok := c.(EnclaveOrder); ok {
			eo.Enclave = ec
			t.cmp.Cols[i] = eo
		}
	}
}

// search is the one way an operation positions itself in a node: the range
// [lo, hi) of run (a leaf's entries or an inner node's separators) whose
// keys equal key on key's components; lo == hi is the slot key would take.
func (t *Tree) search(run []Entry, key [][]byte) (lo, hi int, err error) {
	lo, hi, searches, err := t.cmp.equalRun(key, run)
	t.comparisons.Add(uint64(searches))
	return lo, hi, err
}

// searchRow positions a full (key, row) pair: i is the first slot of run
// not below the pair, found whether run[i] is the pair. Ties on the key
// break on the row id — on the host — which makes every entry of a
// non-unique index distinct.
func (t *Tree) searchRow(run []Entry, key [][]byte, row storage.RowID) (i int, found bool, err error) {
	lo, hi, err := t.search(run, key)
	if err != nil {
		return 0, false, err
	}
	i, found = rowSlot(run, lo, hi, row)
	return i, found, nil
}

// rowSlot finishes a search on the host: within run[lo:hi), the entries
// equal to the key, the first slot not below row, and whether it holds row.
func rowSlot(run []Entry, lo, hi int, row storage.RowID) (int, bool) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch r := run[mid].Row; {
		case r < row:
			lo = mid + 1
		case r > row:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// childFor picks the child of inner node n that holds (or would hold) the
// pair: the one past every separator at or below it.
func (t *Tree) childFor(n *node, key [][]byte, row storage.RowID) (int, error) {
	i, found, err := t.searchRow(n.seps, key, row)
	if found {
		i++
	}
	return i, err
}

// Insert adds an entry: the one-key case of InsertBatch. For unique indexes
// a key collision (regardless of row) returns ErrDuplicate. A failed Insert
// leaves the tree as it was.
func (t *Tree) Insert(key [][]byte, row storage.RowID) error {
	return t.InsertBatch([][][]byte{key}, []storage.RowID{row})
}

// insertOne is InsertBatch for one key: a unique tree first looks for a
// holder with a point scan, then one descent places the entry, one node
// search per level. Must be called with the exclusive latch held.
func (t *Tree) insertOne(key [][]byte, row storage.RowID) error {
	if t.unique {
		var buf [1]Entry
		held, err := t.scan(buf[:0], key, key, true, true, true, 1)
		if err != nil {
			return err
		}
		if len(held) > 0 {
			if held[0].Row != row {
				return ErrDuplicate
			}
			return nil
		}
	}
	right, seps, err := t.insertNode(t.root, key, row)
	if err != nil {
		return err
	}
	t.growRoot(right, seps)
	t.size++
	return nil
}

// insertNode descends, splitting full children on the way back up. Returns
// the new right siblings and their separators when this node split. Every
// node is searched before anything below it changes.
func (t *Tree) insertNode(n *node, key [][]byte, row storage.RowID) ([]*node, []Entry, error) {
	if n.leaf {
		i, _, err := t.searchRow(n.entries, key, row)
		if err != nil {
			return nil, nil, err
		}
		n.entries = slices.Insert(n.entries, i, Entry{Key: key, Row: row})
		right, seps := split(n)
		return right, seps, nil
	}
	ci, err := t.childFor(n, key, row)
	if err != nil {
		return nil, nil, err
	}
	right, seps, err := t.insertNode(n.children[ci], key, row)
	if err != nil || right == nil {
		return nil, nil, err
	}
	n.adopt(ci, right, seps)
	right, seps = split(n)
	return right, seps, nil
}

// adopt enters the right siblings a split of children[ci] produced, each
// after the separator it came with.
func (n *node) adopt(ci int, right []*node, seps []Entry) {
	n.seps = slices.Insert(n.seps, ci, seps...)
	n.children = slices.Insert(n.children, ci+1, right...)
}

// split cuts an overfull node into as many nodes as it needs — n keeps the
// first part — and returns the others in order, each with the separator
// its parent enters it under. A node that fits returns nothing. Parts differ
// in size by at most one, so a node one over the fan-out halves, as a single
// insert splits it, and a batch's overflow fills whole nodes.
func split(n *node) (right []*node, seps []Entry) {
	size, capacity := len(n.children), cap(n.children)
	if n.leaf {
		size, capacity = len(n.entries), cap(n.entries)
	}
	if size <= maxEntries {
		return nil, nil
	}
	parts := (size + maxEntries - 1) / maxEntries
	// Part k spans [bound(k), bound(k+1)); the last size%parts parts take one
	// more than the others.
	bound := func(k int) int { return k*(size/parts) + max(0, k-(parts-size%parts)) }
	// A node grown by single inserts keeps its array and copies the other
	// parts out. An array a batch grew far past a node's size is cut in place
	// instead, each part capped at its end so that an insert into one
	// reallocates it rather than overwriting the next.
	inPlace := capacity > 2*(maxEntries+1)
	right, seps = make([]*node, parts-1), make([]Entry, parts-1)
	if n.leaf {
		next := n.next
		for k := parts - 1; k > 0; k-- {
			r := &node{leaf: true, entries: cut(n.entries, bound(k), bound(k+1), inPlace), next: next}
			right[k-1], seps[k-1], next = r, r.entries[0], r
		}
		n.entries, n.next = first(n.entries, bound(1), inPlace), next
		return right, seps
	}
	for k := 1; k < parts; k++ {
		lo, hi := bound(k), bound(k+1)
		right[k-1] = &node{seps: cut(n.seps, lo, hi-1, inPlace), children: cut(n.children, lo, hi, inPlace)}
		seps[k-1] = n.seps[lo-1]
	}
	n.seps, n.children = first(n.seps, bound(1)-1, inPlace), first(n.children, bound(1), inPlace)
	return right, seps
}

// cut is s[lo:hi] as a part of a split node: in place, capped at its end, or
// copied out.
func cut[E any](s []E, lo, hi int, inPlace bool) []E {
	if inPlace {
		return s[lo:hi:hi]
	}
	return slices.Clone(s[lo:hi])
}

// first is the part of a split node's array the node keeps.
func first[E any](s []E, n int, inPlace bool) []E {
	if inPlace {
		return s[:n:n]
	}
	return s[:n]
}

// growRoot puts a new root above the old one and the right siblings its
// split produced, as many levels as that takes.
func (t *Tree) growRoot(right []*node, seps []Entry) {
	for right != nil {
		t.root = &node{seps: seps, children: append([]*node{t.root}, right...)}
		right, seps = split(t.root)
	}
}

// Delete removes the entry (key, row); it reports whether it was present.
// This is exactly the logical-undo operation of §4.5: navigating the tree
// requires searches, which for encrypted range indexes require enclave
// keys — when they are missing, the error propagates, the tree is left
// untouched and the caller defers the transaction. Separators carry row ids,
// so the descent ends in the one leaf that can hold the pair.
func (t *Tree) Delete(key [][]byte, row storage.RowID) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.invalidated.Load() {
		return false, ErrInvalidated
	}
	if len(key) != len(t.cmp.Cols) {
		return false, fmt.Errorf("btree: key has %d components, comparator %d", len(key), len(t.cmp.Cols))
	}
	n := t.root
	for !n.leaf {
		ci, err := t.childFor(n, key, row)
		if err != nil {
			return false, err
		}
		n = n.children[ci]
	}
	i, found, err := t.searchRow(n.entries, key, row)
	if err != nil || !found {
		return false, err
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.size--
	return true, nil
}

// SeekGE returns up to limit entries with key >= the search key (prefix
// semantics), in order. limit <= 0 means no limit.
func (t *Tree) SeekGE(key [][]byte, limit int) ([]Entry, error) {
	return t.ScanRange(key, nil, true, false, limit)
}

// ScanRange returns entries in [lo, hi] with the given inclusivity. Either
// bound may be nil for open-ended scans. The bounds may be key prefixes.
func (t *Tree) ScanRange(lo, hi [][]byte, loInc, hiInc bool, limit int) ([]Entry, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.invalidated.Load() {
		return nil, ErrInvalidated
	}
	return t.scan(nil, lo, hi, loInc, hiInc, false, limit)
}

// SeekExact returns all entries whose key (or key prefix) equals the search
// key — the equality lookup path for both index flavors. It is a point
// scan: one search per leaf answers both where the run starts and where it
// ends.
func (t *Tree) SeekExact(key [][]byte, limit int) ([]Entry, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.invalidated.Load() {
		return nil, ErrInvalidated
	}
	return t.scan(nil, key, key, true, true, true, limit)
}

// scan appends to out the entries between the bounds, walking the leaf chain
// from the leaf the lower bound descends to. The start slot comes from one
// search of that first leaf, the stop slot from one search per visited leaf;
// everything in between is appended in bulk. point says the caller passed
// the same key as both (inclusive) bounds, so the first leaf's one search
// answers both. Must be called with the tree latch held.
func (t *Tree) scan(out []Entry, lo, hi [][]byte, loInc, hiInc, point bool, limit int) ([]Entry, error) {
	leaf := t.root
	for !leaf.leaf {
		ci := 0
		if lo != nil {
			l, h, err := t.search(leaf.seps, lo)
			if err != nil {
				return nil, err
			}
			// Keys equal to a separator may sit on either side of it (the row
			// id decides, and lazy deletion lets a separator go stale), so an
			// inclusive bound starts left of the equal separators. An
			// exclusive one wants nothing equal and descends past them.
			ci = l
			if !loInc {
				ci = h
			}
		}
		leaf = leaf.children[ci]
	}
	// Every later leaf of the chain holds only entries past the lower bound.
	for first := lo != nil; leaf != nil; leaf, first = leaf.next, false {
		run := leaf.entries
		start, end, searched := 0, len(run), false
		if first {
			l, h, err := t.search(run, lo)
			if err != nil {
				return nil, err
			}
			start = l
			if !loInc {
				start = h
			}
			if point {
				end, searched = h, true
			}
		}
		if hi != nil && !searched {
			l, h, err := t.search(run[start:], hi)
			if err != nil {
				return nil, err
			}
			end = start + h
			if !hiInc {
				end = start + l
			}
		}
		if limit > 0 && len(out)+end-start >= limit {
			return append(out, run[start:start+limit-len(out)]...), nil
		}
		out = append(out, run[start:end]...)
		if end < len(run) {
			break
		}
	}
	return out, nil
}

func leftmostLeaf(n *node) *node {
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// Ascend visits every entry in order until fn returns false.
func (t *Tree) Ascend(fn func(e Entry) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.invalidated.Load() {
		return ErrInvalidated
	}
	for leaf := leftmostLeaf(t.root); leaf != nil; leaf = leaf.next {
		for i := range leaf.entries {
			if !fn(leaf.entries[i]) {
				return nil
			}
		}
	}
	return nil
}

// CheckInvariants verifies the tree's shape — used by property tests. It
// walks entries and separators in key order: each must sort strictly above
// the one before, except that a separator may equal the entry it was copied
// from, the first of its right subtree. The leaf chain must visit the leaves
// in the same order and the entry count must match. It returns the first
// violation found. Order is established with the search every operation
// uses, over a one-entry run.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := checker{t: t, leaf: leftmostLeaf(t.root)}
	if err := c.walk(t.root); err != nil {
		return err
	}
	if c.leaf != nil {
		return errors.New("btree: leaf chain runs past the last leaf")
	}
	if c.count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, c.count)
	}
	return nil
}

// checker is CheckInvariants' in-order walk.
type checker struct {
	t       *Tree
	prev    *Entry // the entry or separator last passed
	prevSep bool
	leaf    *node // where the leaf chain says the walk is
	count   int
}

func (c *checker) pass(e *Entry, sep bool) error {
	if c.prev != nil {
		i, equal, err := c.t.searchRow([]Entry{*c.prev}, e.Key, e.Row)
		if err != nil {
			return err
		}
		if i == 0 && !(equal && c.prevSep && !sep) {
			return fmt.Errorf("btree: entries out of order: %v !< %v", c.prev.Row, e.Row)
		}
	}
	c.prev, c.prevSep = e, sep
	return nil
}

func (c *checker) walk(n *node) error {
	if n.leaf {
		if n != c.leaf {
			return errors.New("btree: leaf chain out of step with the tree")
		}
		c.leaf = n.next
		for i := range n.entries {
			if err := c.pass(&n.entries[i], false); err != nil {
				return err
			}
		}
		c.count += len(n.entries)
		return nil
	}
	if len(n.children) != len(n.seps)+1 {
		return fmt.Errorf("btree: inner node with %d separators, %d children", len(n.seps), len(n.children))
	}
	for i, child := range n.children {
		if err := c.walk(child); err != nil {
			return err
		}
		if i < len(n.seps) {
			if err := c.pass(&n.seps[i], true); err != nil {
				return err
			}
		}
	}
	return nil
}
