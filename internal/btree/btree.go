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

// ColumnOrder orders one key component. Its single question is the one a
// node search asks: where does the probe cell fall in a run of cells?
type ColumnOrder interface {
	// EqualRange returns lo <= hi such that cells [0,lo) sort below probe,
	// [lo,hi) equal it and [hi,Len) sort above it. The cells ascend under
	// this order; neither they nor probe are NULL (the tree keeps NULLs,
	// recognisable by length, to itself).
	EqualRange(probe []byte, cells Cells) (lo, hi int, err error)
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

// EnclaveComparer is the slice of the enclave API the tree needs; satisfied
// by *enclave.Enclave.
type EnclaveComparer interface {
	// EqualRange is ColumnOrder.EqualRange over ciphertext cells of the
	// column encrypted under cekName, answered inside the enclave.
	EqualRange(cekName string, probe []byte, cells [][]byte) (lo, hi int, err error)
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
		// NULL cells form a prefix of the run.
		nulls := 0
		if len(cells.At(0)) == 0 {
			nulls = 1
			for end := n; nulls < end; {
				mid := int(uint(nulls+end) >> 1)
				if len(cells.At(mid)) == 0 {
					nulls = mid + 1
				} else {
					end = mid
				}
			}
		}
		l, h := nulls, nulls
		switch {
		case len(key[c]) == 0:
			l = 0
		case nulls < n:
			searches++
			cells.run = cells.run[nulls:]
			l, h, err = kc.Cols[c].EqualRange(key[c], cells)
			if err != nil {
				return 0, 0, searches, err
			}
			if l < 0 || l > h || h > n-nulls {
				return 0, 0, searches, fmt.Errorf("btree: component %d order answered (%d,%d) over %d cells", c, l, h, n-nulls)
			}
			l, h = l+nulls, h+nulls
		}
		lo, hi = lo+l, lo+h
	}
	return lo, hi, searches, nil
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
	// invalidated by forced deferred-transaction resolution (§4.5).
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
	invalidated bool
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

// Invalidate marks the index unusable (forced resolution of deferred
// transactions skips logical undo and invalidates the index instead, §4.5).
func (t *Tree) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invalidated = true
	t.root = &node{leaf: true}
	t.size = 0
}

// Invalidated reports whether the index has been invalidated.
func (t *Tree) Invalidated() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.invalidated
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
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch r := run[mid].Row; {
		case r < row:
			lo = mid + 1
		case r > row:
			hi = mid
		default:
			return mid, true, nil
		}
	}
	return lo, false, nil
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

// Insert adds an entry. For unique indexes a key collision (regardless of
// row) returns ErrDuplicate. A failed Insert leaves the tree as it was.
func (t *Tree) Insert(key [][]byte, row storage.RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.invalidated {
		return ErrInvalidated
	}
	if len(key) != len(t.cmp.Cols) {
		return fmt.Errorf("btree: key has %d components, comparator %d", len(key), len(t.cmp.Cols))
	}
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
	newChild, newSep, err := t.insertNode(t.root, key, row)
	if err != nil {
		return err
	}
	if newChild != nil {
		t.root = &node{
			leaf:     false,
			seps:     []Entry{newSep},
			children: []*node{t.root, newChild},
		}
	}
	t.size++
	return nil
}

// insertNode descends, splitting full children on the way back up. Returns
// the new right sibling and its separator when this node split. Every node
// is searched before anything below it changes.
func (t *Tree) insertNode(n *node, key [][]byte, row storage.RowID) (*node, Entry, error) {
	if n.leaf {
		i, _, err := t.searchRow(n.entries, key, row)
		if err != nil {
			return nil, Entry{}, err
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = Entry{Key: key, Row: row}
		if len(n.entries) <= maxEntries {
			return nil, Entry{}, nil
		}
		// Split the leaf.
		mid := len(n.entries) / 2
		right := &node{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...), next: n.next}
		n.entries = n.entries[:mid]
		n.next = right
		return right, right.entries[0], nil
	}

	ci, err := t.childFor(n, key, row)
	if err != nil {
		return nil, Entry{}, err
	}
	newChild, newSep, err := t.insertNode(n.children[ci], key, row)
	if err != nil || newChild == nil {
		return nil, Entry{}, err
	}
	n.seps = append(n.seps, Entry{})
	copy(n.seps[ci+1:], n.seps[ci:])
	n.seps[ci] = newSep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.children) <= maxEntries {
		return nil, Entry{}, nil
	}
	// Split the inner node.
	midSep := len(n.seps) / 2
	promoted := n.seps[midSep]
	right := &node{
		leaf:     false,
		seps:     append([]Entry(nil), n.seps[midSep+1:]...),
		children: append([]*node(nil), n.children[midSep+1:]...),
	}
	n.seps = n.seps[:midSep]
	n.children = n.children[:midSep+1]
	return right, promoted, nil
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
	if t.invalidated {
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
	if t.invalidated {
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
	if t.invalidated {
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
	if t.invalidated {
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
