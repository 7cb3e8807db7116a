package enclave

import (
	"errors"
	"math/bits"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/obs"
)

// TestEqualRangeMatchesDefinition: for every n up to two nodes' worth of
// cells and every shape of tie run at every position, equalRange returns
// exactly (#cells below the probe, #cells not above it), orders no cell
// twice and stays inside its 2·bitlen(n)+1 budget.
func TestEqualRangeMatchesDefinition(t *testing.T) {
	for n := 0; n <= 130; n++ {
		// The probe ties with cells [lo, hi); everything left of lo sorts
		// below it, everything from hi on above.
		for lo := 0; lo <= n; lo++ {
			for _, width := range []int{0, 1, 2, 3, n - lo} {
				hi := lo + width
				if hi > n {
					continue
				}
				seen := make([]int, n)
				calls := 0
				gotLo, gotHi, err := equalRange(n, func(i int) (int, error) {
					seen[i]++
					calls++
					switch {
					case i < lo:
						return -1, nil
					case i < hi:
						return 0, nil
					default:
						return 1, nil
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if gotLo != lo || gotHi != hi {
					t.Fatalf("n=%d ties [%d,%d): got (%d,%d)", n, lo, hi, gotLo, gotHi)
				}
				for i, c := range seen {
					if c > 1 {
						t.Fatalf("n=%d ties [%d,%d): cell %d ordered %d times", n, lo, hi, i, c)
					}
				}
				if limit := 2*bits.Len(uint(n)) + 1; calls > limit {
					t.Fatalf("n=%d ties [%d,%d): %d cells ordered, budget %d", n, lo, hi, calls, limit)
				}
			}
		}
	}
}

// TestEqualRangeStopsAtFirstError: an unreadable cell ends the search; no
// further cell is ordered and no position is reported.
func TestEqualRangeStopsAtFirstError(t *testing.T) {
	boom := errors.New("cell unreadable")
	for n := 1; n <= 70; n++ {
		for failAt := 1; failAt <= 2*bits.Len(uint(n))+1; failAt++ {
			calls := 0
			lo, hi, err := equalRange(n, func(i int) (int, error) {
				if calls++; calls == failAt {
					return 0, boom
				}
				// Ties in the middle third, so all three phases run.
				switch {
				case i < n/3:
					return -1, nil
				case i < 2*n/3+1:
					return 0, nil
				default:
					return 1, nil
				}
			})
			if calls < failAt {
				continue // the search finished before the failing call
			}
			if !errors.Is(err, boom) || lo != 0 || hi != 0 {
				t.Fatalf("n=%d failAt=%d: (%d,%d,%v)", n, failAt, lo, hi, err)
			}
			if calls != failAt {
				t.Fatalf("n=%d failAt=%d: %d cells ordered after the error", n, failAt, calls-failAt)
			}
		}
	}
}

// searchFixture is an enclave holding CEK "K" plus ascending RND cells
// 0, 10, 20, ... under it.
func searchFixture(t testing.TB, opts Options, n int) (*Enclave, *clientSession, *aecrypto.CellKey, []byte, [][]byte) {
	t.Helper()
	e := testEnclave(t, opts)
	cs := newClientSession(t, e)
	root, err := aecrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cs.installCEK(t, e, "K", root)
	key := aecrypto.MustCellKey(root)
	cells := make([][]byte, n)
	for i := range cells {
		cells[i] = encInt(t, key, int64(10*i))
	}
	return e, cs, key, root, cells
}

// TestEnclaveEqualRange: the node-search entry point over real ciphertext,
// queued and synchronous — one enclave task per call, whatever the node size.
func TestEnclaveEqualRange(t *testing.T) {
	for _, sync := range []bool{false, true} {
		reg := obs.New("test")
		e, _, key, _, cells := searchFixture(t, Options{Threads: 1, Synchronous: sync, Obs: reg}, 64)
		// Duplicate plaintexts under fresh IVs: cells 20..22 all hold 200.
		cells[21], cells[22] = encInt(t, key, 200), encInt(t, key, 200)
		for _, tc := range []struct {
			probe  int64
			lo, hi int
		}{
			{-5, 0, 0}, {0, 0, 1}, {5, 1, 1}, {200, 20, 23}, {630, 63, 64}, {1000, 64, 64},
		} {
			tasks := reg.Counter("enclave.queue.tasks").Value()
			evals := reg.Counter("enclave.evals").Value()
			lo, hi, err := e.EqualRange("K", encInt(t, key, tc.probe), cells)
			if err != nil || lo != tc.lo || hi != tc.hi {
				t.Fatalf("sync=%v probe %d: (%d,%d,%v), want (%d,%d)", sync, tc.probe, lo, hi, err, tc.lo, tc.hi)
			}
			if d := reg.Counter("enclave.queue.tasks").Value() - tasks; !sync && d != 1 {
				t.Fatalf("one node search made %d queue submits", d)
			}
			if d := reg.Counter("enclave.evals").Value() - evals; d != 1 {
				t.Fatalf("one node search bumped enclave.evals by %d", d)
			}
		}
		if lo, hi, err := e.EqualRange("K", encInt(t, key, 1), nil); err != nil || lo != 0 || hi != 0 {
			t.Fatalf("empty run: (%d,%d,%v)", lo, hi, err)
		}
		snap := reg.Snapshot()
		if h := snap.Histograms["enclave.index.cells_per_call"]; h.Count != 7 || h.Sum != 6*64 {
			t.Fatalf("cells_per_call = %+v", h)
		}
		e.Close()
	}
}

// TestEqualRangeKeyMissingClosedRestart: a missing key surfaces as
// ErrKeyNotInEnclave BEFORE the probe or any cell is opened (garbage cells
// would otherwise fail authentication first), a torn-down enclave answers
// ErrClosed from both entry points, and a corrupt cell the search lands on
// is an error, never a position.
func TestEqualRangeKeyMissingClosedRestart(t *testing.T) {
	e, cs, key, root, cells := searchFixture(t, Options{Threads: 1}, 16)
	garbage := [][]byte{[]byte("not a cell"), nil, {1, 2, 3}}
	if _, _, err := e.EqualRange("Missing", []byte("not a probe"), garbage); !errors.Is(err, ErrKeyNotInEnclave) {
		t.Fatalf("missing key: %v", err)
	}
	if _, _, err := e.EqualRange("K", []byte("not a probe"), cells); !errors.Is(err, aecrypto.ErrInvalidCiphertext) {
		t.Fatalf("corrupt probe: %v", err)
	}
	bad := append([][]byte(nil), cells...)
	bad[8] = []byte("corrupt") // the first cell a 16-cell search opens
	if lo, hi, err := e.EqualRange("K", encInt(t, key, 35), bad); err == nil || lo != 0 || hi != 0 {
		t.Fatalf("corrupt cell: (%d,%d,%v)", lo, hi, err)
	}
	// A reinstall of the same key (what every new session does) changes nothing.
	cs.installCEK(t, e, "K", root)
	if lo, hi, err := e.EqualRange("K", encInt(t, key, 30), cells); err != nil || lo != 3 || hi != 4 {
		t.Fatalf("after reinstall: (%d,%d,%v)", lo, hi, err)
	}
	e.Close()
	if _, _, err := e.EqualRange("K", cells[0], cells); !errors.Is(err, ErrClosed) {
		t.Fatalf("EqualRange after Close: %v", err)
	}
	if _, err := e.Compare("K", cells[0], cells[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compare after Close: %v", err)
	}
}

// BenchmarkEqualRangeNode: one full node (64 cells), probe in the middle.
func BenchmarkEqualRangeNode(b *testing.B) {
	e, _, key, _, cells := searchFixture(b, Options{Threads: 1}, 64)
	probe := encInt(b, key, 315)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.EqualRange("K", probe, cells); err != nil {
			b.Fatal(err)
		}
	}
}
