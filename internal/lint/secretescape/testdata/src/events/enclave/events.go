package enclave

import "aecrypto"

func use(args ...interface{}) {}

var lastKey []byte

// keyRing mirrors the enclave's aggregate key holder.
type keyRing struct {
	keys map[string][]byte
}

// GlobalEscape parks key material in a package-level variable.
func GlobalEscape() {
	k, err := aecrypto.GenerateKey()
	if err != nil {
		return
	}
	lastKey = k // want `secret from aecrypto\.GenerateKey escapes to a package-level variable`
}

// SpawnCapture hands plaintext to a goroutine via closure capture.
func SpawnCapture(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	go func() { use(pt) }() // want `secret from CellKey\.Decrypt escapes into a spawned goroutine`
}

// SpawnArg hands plaintext to a goroutine as a spawned-call argument.
func SpawnArg(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	go use(pt) // want `secret from CellKey\.Decrypt escapes into a spawned goroutine`
}

// ForeignSend pushes plaintext into a channel the frame does not own.
func ForeignSend(key *aecrypto.CellKey, cell []byte, out chan []byte) {
	pt, _ := key.Decrypt(cell)
	out <- pt // want `secret from CellKey\.Decrypt is sent on a channel this frame does not own`
}

// StoreThroughParam files a key into a caller-owned aggregate: a declared
// channel, whose lifetime is secretretain's contract, not an escape.
func StoreThroughParam(r *keyRing) {
	k, _ := aecrypto.GenerateKey()
	r.keys["cek"] = k
}

// ReturnedKey hands the key back through the declared result slot.
func ReturnedKey() []byte {
	k, _ := aecrypto.GenerateKey()
	return k
}
