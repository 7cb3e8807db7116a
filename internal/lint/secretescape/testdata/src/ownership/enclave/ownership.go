package enclave

import (
	"aecrypto"
	"hostobs"
)

func use(args ...interface{}) {}

// keyRing mirrors the enclave's aggregate key holder.
type keyRing struct {
	keys  map[string][]byte
	loads int
}

// OwnershipTransfer: filing the key into a local aggregate hands ownership
// to it; sharing the aggregate through clean fields afterwards is ordinary
// object flow (secretretain audits the aggregate's zeroize path).
func OwnershipTransfer() *keyRing {
	k, _ := aecrypto.GenerateKey()
	r := &keyRing{keys: map[string][]byte{}}
	r.keys["cek"] = k
	hostobs.OnFlush(func() { use(r.loads) })
	go func() { use(r.loads) }()
	return r
}

// FieldRecapture: a closure mentioning the field the key was filed under
// captures the key, though the aggregate as a whole owns it.
func FieldRecapture() {
	k, _ := aecrypto.GenerateKey()
	r := &keyRing{keys: map[string][]byte{}}
	r.keys["cek"] = k
	hostobs.OnFlush(func() { use(r.keys) }) // want `secret from aecrypto\.GenerateKey is captured by a callback handed to hostobs\.OnFlush`
}
