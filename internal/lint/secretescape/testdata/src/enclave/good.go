package enclave

import (
	"aecrypto"
	"hostobs"
)

// keyRing mirrors the enclave's aggregate key holder.
type keyRing struct {
	keys  map[string][]byte
	loads int
}

// LocalConduit: a frame-local channel is in-frame plumbing, and returning
// the plaintext uses the declared result slot — the legal exit.
func LocalConduit(key *aecrypto.CellKey, cell []byte) []byte {
	pt, _ := key.Decrypt(cell)
	ch := make(chan []byte, 1)
	ch <- pt
	return <-ch
}

// OwnershipTransfer: filing the key into a local aggregate hands ownership
// to it; sharing the aggregate through clean fields afterwards is ordinary
// object flow (secretretain audits the aggregate's zeroize path).
func OwnershipTransfer() *keyRing {
	k, _ := aecrypto.GenerateKey()
	r := &keyRing{keys: map[string][]byte{}}
	r.keys["cek"] = k
	hostobs.OnFlush(func() { use(r.loads) })
	return r
}

// BorrowOnly: plain call arguments are borrows — the callee returns before
// the frame does.
func BorrowOnly(key *aecrypto.CellKey, cell []byte) int {
	pt, _ := key.Decrypt(cell)
	use(pt)
	return len(pt)
}

// KilledBeforeSpawn: flow-sensitivity — the secret is wiped and the binding
// rebound before the goroutine exists.
func KilledBeforeSpawn(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	aecrypto.Zeroize(pt)
	pt = nil
	go func() { use(pt) }()
}

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
