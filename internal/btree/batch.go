package btree

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"alwaysencrypted/internal/storage"
)

// The batch insert. A statement's keys are ordered once, then positioned
// together one tree level at a time, and only then is the tree changed:
//
//  1. Sort. Each key component's order ranks the batch's cells of that
//     component in one call (for an enclave-ordered component, one enclave
//     sort task); the host sorts the keys component by component on those
//     ranks or on the plaintext bytes, NULL first, ties broken by row id.
//  2. Position. Starting at the root, every key is searched in the node it
//     has reached, all keys of a level in one EqualRanges call per component
//     — one enclave task per level. The unique check rides the same descent.
//  3. Mutate. The keys are merged into their leaves in order; a node that
//     overflows splits into as many nodes as it needs, level by level up to
//     the root. A batch into an empty tree is therefore a bottom-up build.
//
// Every step that can fail comes before the first change, so a failed batch
// leaves the tree exactly as it was.

// InsertBatch adds the entries (keys[i], rows[i]) as one operation: either
// all of them are in the tree afterwards or, on any error, none is. A unique
// tree rejects a key it holds under another row, and two keys of the batch
// that are equal under different rows, with ErrDuplicate; a (key, row) pair
// it already holds is skipped, as Insert skips it.
func (t *Tree) InsertBatch(keys [][][]byte, rows []storage.RowID) error {
	if len(keys) != len(rows) {
		return fmt.Errorf("btree: %d keys for %d rows", len(keys), len(rows))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.invalidated.Load() {
		return ErrInvalidated
	}
	for _, key := range keys {
		if len(key) != len(t.cmp.Cols) {
			return fmt.Errorf("btree: key has %d components, comparator %d", len(key), len(t.cmp.Cols))
		}
	}
	switch len(keys) {
	case 0:
		return nil
	case 1:
		return t.insertOne(keys[0], rows[0])
	}
	b := batch{t: t}
	if err := b.sort(keys, rows); err != nil {
		return err
	}
	if err := b.position(); err != nil {
		return err
	}
	b.apply()
	return nil
}

// batch is one InsertBatch in progress. Keys are addressed by their position
// in the sorted order.
type batch struct {
	t    *Tree
	keys [][][]byte      // sorted
	rows []storage.RowID // sorted with keys
	// levels[l] are the nodes of tree level l (the root's level first) the
	// batch passes through, left to right.
	levels [][]visit
	// slot is each key's insert position in its leaf, or -1 for a pair the
	// unique tree already holds.
	slot []int
}

// visit is one node on the batch's descent and the keys descending through
// it: sorted positions [from, to).
type visit struct {
	n        *node
	from, to int
	parent   int // index of the parent's visit one level up; -1 at the root
	ci       int // n's index among the parent's children
}

// sort orders the batch as the tree orders it and, in a unique tree, drops a
// repeated (key, row) pair and rejects a repeated key.
func (b *batch) sort(keys [][][]byte, rows []storage.RowID) error {
	t, n := b.t, len(keys)
	ranks := make([][]int, len(t.cmp.Cols)) // nil: compare the bytes
	cells := make([][]byte, 0, n)
	at := make([]int, 0, n)
	for c, col := range t.cmp.Cols {
		cells, at = cells[:0], at[:0]
		for i, key := range keys {
			if len(key[c]) > 0 {
				cells, at = append(cells, key[c]), append(at, i)
			}
		}
		if len(cells) == 0 {
			continue
		}
		t.comparisons.Add(1)
		r, err := col.Rank(cells)
		if err != nil {
			return err
		}
		if r == nil {
			continue
		}
		if len(r) != len(cells) {
			return fmt.Errorf("btree: component %d order ranked %d of %d cells", c, len(r), len(cells))
		}
		ranks[c] = make([]int, n)
		for j, i := range at {
			ranks[c][i] = r[j]
		}
	}
	keyCmp := func(a, b int) int {
		for c, r := range ranks {
			x, y := keys[a][c], keys[b][c]
			var d int
			if r == nil || len(x) == 0 || len(y) == 0 {
				d = bytes.Compare(x, y) // NULL, the empty cell, sorts first
			} else {
				d = cmp.Compare(r[a], r[b])
			}
			if d != 0 {
				return d
			}
		}
		return 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, c int) int {
		if d := keyCmp(a, c); d != 0 {
			return d
		}
		return cmp.Compare(rows[a], rows[c])
	})
	if t.unique {
		kept := order[:1]
		for _, i := range order[1:] {
			prev := kept[len(kept)-1]
			switch {
			case keyCmp(prev, i) != 0:
				kept = append(kept, i)
			case rows[prev] != rows[i]:
				return ErrDuplicate
			}
		}
		order = kept
	}
	b.keys, b.rows = make([][][]byte, len(order)), make([]storage.RowID, len(order))
	for p, i := range order {
		b.keys[p], b.rows[p] = keys[i], rows[i]
	}
	return nil
}

// position descends from the root one level at a time, every key of a level
// searched in one equalRuns call, and records each key's leaf slot. In a
// unique tree a key equal to an entry of its leaf is a duplicate (or, under
// the same row, skipped). A key can have an equal entry in another leaf only
// if a separator on its path equals it; for such keys a point scan decides.
func (b *batch) position() error {
	t, m := b.t, len(b.keys)
	runs := make([][]Entry, m)
	bounds := make([]int, 2*m)
	var recheck []bool
	if t.unique {
		recheck = make([]bool, m)
	}
	scratch := runSearch{
		probes: make([][]byte, 0, m), cells: make([]Cells, 0, m),
		who: make([]int, 0, m), answers: make([]int, 0, 2*m),
	}
	cur := []visit{{n: t.root, from: 0, to: m, parent: -1}}
	for {
		leaf := cur[0].n.leaf
		for _, v := range cur {
			run := v.n.seps
			if leaf {
				run = v.n.entries
			}
			for p := v.from; p < v.to; p++ {
				runs[p] = run
			}
		}
		searches, err := t.cmp.equalRuns(b.keys, runs, bounds, &scratch)
		t.comparisons.Add(uint64(searches))
		if err != nil {
			return err
		}
		b.levels = append(b.levels, cur)
		if leaf {
			break
		}
		// Sorted keys that take the same child of one node are adjacent.
		var next []visit
		for vi, v := range cur {
			for p := v.from; p < v.to; p++ {
				ci := b.child(runs[p], bounds, p)
				if last := len(next) - 1; p > v.from && next[last].ci == ci {
					next[last].to = p + 1
				} else {
					next = append(next, visit{n: v.n.children[ci], from: p, to: p + 1, parent: vi, ci: ci})
				}
			}
		}
		if t.unique {
			for p := range recheck {
				recheck[p] = recheck[p] || bounds[2*p] < bounds[2*p+1]
			}
		}
		cur = next
	}
	b.slot = make([]int, m)
	for p := range b.slot {
		lo, hi := bounds[2*p], bounds[2*p+1]
		b.slot[p], _ = rowSlot(runs[p], lo, hi, b.rows[p])
		if !t.unique {
			continue
		}
		held := runs[p][lo:hi]
		if recheck[p] {
			var buf [1]Entry
			var err error
			if held, err = t.scan(buf[:0], b.keys[p], b.keys[p], true, true, true, 1); err != nil {
				return err
			}
		}
		if len(held) > 0 {
			if held[0].Row != b.rows[p] {
				return ErrDuplicate
			}
			b.slot[p] = -1
		}
	}
	return nil
}

// child is the child index key p takes in an inner node, given its equal
// range among the node's separators: past every separator at or below it.
func (b *batch) child(seps []Entry, bounds []int, p int) int {
	i, found := rowSlot(seps, bounds[2*p], bounds[2*p+1], b.rows[p])
	if found {
		i++
	}
	return i
}

// apply merges the keys into their leaves and carries every split up the
// levels the descent recorded, growing the root last. It cannot fail.
func (b *batch) apply() {
	type growth struct {
		parent, ci int
		right      []*node
		seps       []Entry
	}
	var up []growth // the splits of the level below, in parent order
	for l := len(b.levels) - 1; l >= 0; l-- {
		var next []growth
		k := 0
		for vi, v := range b.levels[l] {
			n := v.n
			if n.leaf {
				b.merge(n, v)
			} else {
				// Children of this node split; enter their siblings right
				// to left so the indexes of the others stay valid.
				end := k
				for end < len(up) && up[end].parent == vi {
					end++
				}
				for g := end - 1; g >= k; g-- {
					n.adopt(up[g].ci, up[g].right, up[g].seps)
				}
				k = end
			}
			if right, seps := split(n); right != nil {
				next = append(next, growth{parent: v.parent, ci: v.ci, right: right, seps: seps})
			}
		}
		up = next
	}
	if len(up) > 0 {
		b.t.growRoot(up[0].right, up[0].seps)
	}
}

// merge inserts the keys that descended to leaf n at their slots, working
// from the right end so every entry moves once.
func (b *batch) merge(n *node, v visit) {
	added := 0
	for p := v.from; p < v.to; p++ {
		if b.slot[p] >= 0 {
			added++
		}
	}
	if added == 0 {
		return
	}
	j := len(n.entries) - 1
	n.entries = slices.Grow(n.entries, added)[:len(n.entries)+added]
	w := len(n.entries) - 1
	for p := v.to - 1; p >= v.from; p-- {
		s := b.slot[p]
		if s < 0 {
			continue
		}
		for ; j >= s; j, w = j-1, w-1 {
			n.entries[w] = n.entries[j]
		}
		n.entries[w] = Entry{Key: b.keys[p], Row: b.rows[p]}
		w--
	}
	b.t.size += added
}
