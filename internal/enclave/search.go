package enclave

import (
	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// This file is the enclave side of range-index navigation (§3.1.2, Figure 4).
// The unit of work that crosses the boundary is one node search — a probe
// cell against one key component's cells of one B-tree node — not one
// comparison (§4.6: transitions amortized over larger units of work).

// EqualRange reports where probe falls among cells, all ciphertext of one
// column under the named CEK and ascending by plaintext: cells [0,lo) sort
// below the probe, [lo,hi) equal it, [hi,len) sort above. That pair is all
// that returns to the host — a function of the −1/0/+1 relations between the
// probe and the cells, the ordering disclosure Figure 5 declares for RND
// comparisons; no plaintext, no length and no count of the work done.
//
// The whole search is ONE enclave task. Inside it the key is resolved first
// (a missing key is ErrKeyNotInEnclave before any cell is touched, which is
// what lets key-less redo defer, §4.5), the probe is decrypted once, and the
// search opens only the cells it lands on, each at most once. Every
// plaintext buffer is wiped before the task ends; nothing is remembered
// across calls.
func (e *Enclave) EqualRange(cekName string, probe []byte, cells [][]byte) (lo, hi int, err error) {
	if e.closed.Load() {
		return 0, 0, ErrClosed
	}
	sp := e.evalCall.StartSpan()
	e.indexCells.Observe(int64(len(cells)))
	// One heap object carries the task's results back, not one per result.
	var res struct {
		lo, hi int
		err    error
	}
	e.enter(func() { res.lo, res.hi, res.err = e.searchCells(cekName, probe, cells) })
	sp.End()
	if res.err != nil {
		return 0, 0, res.err
	}
	e.evals.Inc()
	return res.lo, res.hi, nil
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

// searchCells runs inside an enclave thread. Panics are converted into the
// coarse ErrFault, as for expression evaluation: no plaintext detail escapes
// the boundary.
func (e *Enclave) searchCells(cekName string, probe []byte, cells [][]byte) (lo, hi int, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.faults.Inc()
			lo, hi, err = 0, 0, ErrFault
		}
	}()
	key, err := (*enclaveKeyRing)(e).CellKey(cekName)
	if err != nil {
		return 0, 0, err
	}
	pv, err := openCell(key, probe)
	if err != nil {
		return 0, 0, err
	}
	defer aecrypto.Zeroize(pv.B)
	return equalRange(len(cells), func(i int) (int, error) {
		cv, err := openCell(key, cells[i])
		if err != nil {
			return 0, err
		}
		defer aecrypto.Zeroize(cv.B)
		return sqltypes.Compare(cv, pv)
	})
}

// openCell decrypts one cell and decodes it, wiping the plaintext buffer on
// every path out. (A decoded string is an immutable copy the runtime owns;
// it dies with the task's frame, as in the expression evaluator.)
func openCell(key *aecrypto.CellKey, cell []byte) (sqltypes.Value, error) {
	pt, err := key.Decrypt(cell)
	if err != nil {
		return sqltypes.Value{}, err
	}
	defer aecrypto.Zeroize(pt)
	return sqltypes.Decode(pt)
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
