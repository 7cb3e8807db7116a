package enclave

import (
	"fmt"
	"slices"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// This file is the enclave side of range-index navigation (§3.1.2, Figure 4).
// The unit of work that crosses the boundary is a whole search — one probe
// cell against one key component's cells of one B-tree node, or a batch's
// probes each against its own node at one tree level, or the ordering of a
// batch's own cells — never one comparison (§4.6: transitions amortized over
// larger units of work).

// EqualRange reports where probe falls among cells, all ciphertext of one
// column under the named CEK and ascending by plaintext: cells [0,lo) sort
// below the probe, [lo,hi) equal it, [hi,len) sort above. It is the
// one-probe case of EqualRanges.
func (e *Enclave) EqualRange(cekName string, probe []byte, cells [][]byte) (lo, hi int, err error) {
	// One heap object carries the search across the boundary and back.
	one := new(struct {
		task   searchTask
		probes [1][]byte
		runs   [1][][]byte
		bounds [2]int
	})
	one.probes[0], one.runs[0] = probe, cells
	one.task = searchTask{probes: one.probes[:], runs: one.runs[:], bounds: one.bounds[:]}
	if err := e.search(cekName, &one.task); err != nil {
		return 0, 0, err
	}
	return one.bounds[0], one.bounds[1], nil
}

// EqualRanges answers len(probes) searches, probe i against runs[i], writing
// its (lo, hi) to bounds[2i] and bounds[2i+1]. Those pairs are all that
// returns to the host — each a function of the −1/0/+1 relations between a
// probe and its cells, the ordering disclosure Figure 5 declares for RND
// comparisons; no plaintext, no length and no count of the work done.
//
// All the searches are ONE enclave task. Inside it the key is resolved first
// (a missing key is ErrKeyNotInEnclave before any cell is touched, which is
// what lets a key-less replica invalidate the index), each probe is
// decrypted once, and the searches open only the cells they land on — a
// cell that several searches share (a node that several probes reached) at
// most once. Every plaintext buffer is wiped before the task ends; nothing
// is remembered across calls.
func (e *Enclave) EqualRanges(cekName string, probes [][]byte, runs [][][]byte, bounds []int) error {
	if len(runs) != len(probes) || len(bounds) < 2*len(probes) {
		return fmt.Errorf("enclave: %d probes, %d runs, %d bounds", len(probes), len(runs), len(bounds))
	}
	return e.search(cekName, &searchTask{probes: probes, runs: runs, bounds: bounds})
}

// searchTask is one EqualRanges call on its way through the boundary.
type searchTask struct {
	probes [][]byte
	runs   [][][]byte
	bounds []int
	err    error
}

// search runs t as one enclave task.
func (e *Enclave) search(cekName string, t *searchTask) error {
	if e.closed.Load() {
		return ErrClosed
	}
	sp := e.evalCall.StartSpan()
	cells := 0
	for _, run := range t.runs {
		cells += len(run)
	}
	e.indexCells.Observe(int64(cells))
	e.enter(func() { t.err = e.searchRuns(cekName, t.probes, t.runs, t.bounds) })
	sp.End()
	if t.err != nil {
		return t.err
	}
	e.evals.Inc()
	return nil
}

// Compare returns the three-way plaintext ordering of two ciphertexts under
// the named CEK: the one-cell case of EqualRange, with b the cell and a the
// probe.
func (e *Enclave) Compare(cekName string, a, b []byte) (int, error) {
	lo, hi, err := e.EqualRange(cekName, a, [][]byte{b})
	if err != nil {
		return 0, err
	}
	// b sorts below a (1,1), ties with it (0,1) or sorts above it (0,0).
	return lo + hi - 1, nil
}

// Sort orders cells — ciphertext of one column under the named CEK — by
// plaintext, in one enclave task that decrypts each cell once. What returns
// is the permutation (perm[k] is the index of the cell in sorted position
// k, equal cells in the order given) and the tie marks (ties[k]: the cell at
// position k equals the one at k-1): the order of the caller's own cells,
// which the index lays out anyway once they are inserted.
func (e *Enclave) Sort(cekName string, cells [][]byte) (perm []int, ties []bool, err error) {
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	sp := e.evalCall.StartSpan()
	e.indexCells.Observe(int64(len(cells)))
	perm, ties = make([]int, len(cells)), make([]bool, len(cells))
	e.enter(func() { err = e.sortCells(cekName, cells, perm, ties) })
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	e.evals.Inc()
	return perm, ties, nil
}

// searchRuns runs inside an enclave thread. Panics are converted into the
// coarse ErrFault, as for expression evaluation: no plaintext detail escapes
// the boundary.
func (e *Enclave) searchRuns(cekName string, probes [][]byte, runs [][][]byte, bounds []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.faults.Inc()
			err = ErrFault
		}
	}()
	opener, err := e.taskOpener(cekName)
	if err != nil {
		return err
	}
	defer opener.Zeroize()
	opened := openedCells{opener: opener}
	if len(probes) > 1 {
		opened.memo = make(map[cellRef]sqltypes.Value)
	}
	defer opened.wipe()
	for i, probe := range probes {
		pv, err := opener.open(probe)
		if err != nil {
			return err
		}
		run := runs[i]
		bounds[2*i], bounds[2*i+1], err = equalRange(len(run), func(j int) (int, error) {
			return opened.compare(run[j], pv)
		})
		aecrypto.Zeroize(pv.B)
		if err != nil {
			return err
		}
	}
	return nil
}

// openedCells opens the cells of one task. With a memo — a task of several
// searches — each cell is decrypted once and wiped when the task ends;
// without one, each is wiped as soon as it has been ordered.
type openedCells struct {
	opener *cellOpener
	memo   map[cellRef]sqltypes.Value
}

// cellRef identifies a ciphertext by where it lives, so a cell the host
// hands over for several searches is recognised without hashing it.
type cellRef struct {
	p *byte
	n int
}

// compare orders cell against the decrypted probe pv.
func (o *openedCells) compare(cell []byte, pv sqltypes.Value) (int, error) {
	if o.memo == nil || len(cell) == 0 {
		cv, err := o.opener.open(cell)
		if err != nil {
			return 0, err
		}
		defer aecrypto.Zeroize(cv.B)
		return sqltypes.Compare(cv, pv)
	}
	ref := cellRef{&cell[0], len(cell)}
	cv, ok := o.memo[ref]
	if !ok {
		var err error
		if cv, err = o.opener.open(cell); err != nil {
			return 0, err
		}
		o.memo[ref] = cv
	}
	return sqltypes.Compare(cv, pv)
}

// wipe zeroes every plaintext the memo holds.
func (o *openedCells) wipe() {
	for _, v := range o.memo {
		aecrypto.Zeroize(v.B)
	}
}

// sortCells runs inside an enclave thread, converting panics as searchRuns
// does.
func (e *Enclave) sortCells(cekName string, cells [][]byte, perm []int, ties []bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.faults.Inc()
			err = ErrFault
		}
	}()
	opener, err := e.taskOpener(cekName)
	if err != nil {
		return err
	}
	defer opener.Zeroize()
	vals := make([]sqltypes.Value, len(cells))
	defer func() {
		for _, v := range vals {
			aecrypto.Zeroize(v.B)
		}
	}()
	for i, cell := range cells {
		if vals[i], err = opener.open(cell); err != nil {
			return err
		}
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		c, cerr := sqltypes.Compare(vals[a], vals[b])
		if cerr != nil && err == nil {
			err = cerr
		}
		return c
	})
	if err != nil {
		return err
	}
	for k := 1; k < len(perm); k++ {
		c, err := sqltypes.Compare(vals[perm[k-1]], vals[perm[k]])
		if err != nil {
			return err
		}
		ties[k] = c == 0
	}
	return nil
}

// cellOpener opens the cells of one enclave task, all under one CEK,
// through one opener — one key schedule and MAC state for the task — and
// one plaintext arena. Zeroize retires both when the task ends.
type cellOpener struct {
	op    *aecrypto.Opener
	arena []byte
}

// taskOpener resolves the named CEK — a missing key is ErrKeyNotInEnclave
// before any cell is touched — and makes the task's cellOpener for it.
func (e *Enclave) taskOpener(cekName string) (*cellOpener, error) {
	key, err := (*enclaveKeyRing)(e).CellKey(cekName)
	if err != nil {
		return nil, err
	}
	op, err := key.NewOpener()
	if err != nil {
		return nil, err
	}
	return &cellOpener{op: op}, nil
}

// open decrypts one cell and decodes it, wiping the plaintext on every path
// out. (A decoded string is an immutable copy the runtime owns; it dies
// with the task's frame, as in the expression evaluator.)
func (c *cellOpener) open(cell []byte) (sqltypes.Value, error) {
	pt, err := c.op.Open(c.arena, cell)
	if err != nil {
		return sqltypes.Value{}, err
	}
	c.arena = pt
	defer aecrypto.Zeroize(pt)
	return sqltypes.Decode(pt)
}

// Zeroize retires the task's opener and wipes its arena.
func (c *cellOpener) Zeroize() {
	c.op.Zeroize()
	aecrypto.Zeroize(c.arena[:cap(c.arena)])
}

// equalRange finds the equal range of a probe among n ascending cells, given
// order(i) = the sign of cell i relative to the probe. It halves until it
// meets a cell equal to the probe, then finishes the lower bound to that
// cell's left and the upper bound to its right — so no cell is ordered twice
// (no memo of opened cells is needed) and at most 2·bitlen(n)+1 cells are
// ordered in all. The first error ends the search.
func equalRange(n int, order func(i int) (int, error)) (lo, hi int, err error) {
	lo, hi = 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := order(mid)
		if err != nil {
			return 0, 0, err
		}
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			// Cells in [lo, mid) sort below the probe or equal it; cells in
			// (mid, hi) equal it or sort above.
			first := mid
			for lo < first {
				m := int(uint(lo+first) >> 1)
				c, err := order(m)
				if err != nil {
					return 0, 0, err
				}
				if c < 0 {
					lo = m + 1
				} else {
					first = m
				}
			}
			past := mid + 1
			for past < hi {
				m := int(uint(past+hi) >> 1)
				c, err := order(m)
				if err != nil {
					return 0, 0, err
				}
				if c > 0 {
					hi = m
				} else {
					past = m + 1
				}
			}
			return first, past, nil
		}
	}
	return lo, lo, nil
}
