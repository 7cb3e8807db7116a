package enclave

import "aecrypto"

func use(args ...interface{}) {}

// LocalConduit: a frame-local channel is in-frame plumbing, and returning
// the plaintext uses the declared result slot — the legal exit.
func LocalConduit(key *aecrypto.CellKey, cell []byte) []byte {
	pt, _ := key.Decrypt(cell)
	ch := make(chan []byte, 1)
	ch <- pt
	return <-ch
}

// ConduitThenForeign: a frame-local channel carries the secret through to
// what is received from it.
func ConduitThenForeign(key *aecrypto.CellKey, cell []byte, out chan []byte) {
	pt, _ := key.Decrypt(cell)
	ch := make(chan []byte, 1)
	ch <- pt
	out <- <-ch // want `secret from CellKey\.Decrypt is sent on a channel this frame does not own`
}

// BorrowOnly: plain call arguments are borrows — the callee returns before
// the frame does.
func BorrowOnly(key *aecrypto.CellKey, cell []byte) int {
	pt, _ := key.Decrypt(cell)
	use(pt)
	return len(pt)
}

// UnknownCallback hands a secret-capturing closure to an unresolved function
// value — which could go anywhere.
func UnknownCallback(key *aecrypto.CellKey, cell []byte, register func(func())) {
	pt, _ := key.Decrypt(cell)
	register(func() { use(pt) }) // want `secret from CellKey\.Decrypt is captured by a callback handed to an unresolved function value`
}
