package enclave

import "aecrypto"

// CleanSpawn: goroutines over non-secret state are the normal concurrency
// idiom and stay clean.
func CleanSpawn(done chan struct{}) {
	go func() { done <- struct{}{} }()
}

// OpenerPerCall opens a call's cells through one opener and one arena,
// both retired before the frame returns; only the cell count leaves.
func OpenerPerCall(key *aecrypto.CellKey, cells [][]byte) int {
	op, err := key.NewOpener()
	if err != nil {
		return 0
	}
	defer op.Zeroize()
	var arena []byte
	n := 0
	for _, cell := range cells {
		pt, err := op.Open(arena, cell)
		if err != nil {
			continue
		}
		arena = pt
		use(pt)
		n++
	}
	aecrypto.Zeroize(arena[:cap(arena)])
	return n
}
