package enclave

import (
	"crypto/cipher"

	"aecrypto"
	"obs"
)

// RecordLeaky feeds decrypted bytes into instruments.
func RecordLeaky(reg *obs.Registry, key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	h := reg.Histogram("enclave.values")
	h.Observe(int64(pt[0]))                                      // want `plaintext-derived value reaches obs\.Histogram\.Observe`
	reg.Counter("enclave.bytes").Add(uint64(pt[0]))              // want `plaintext-derived value reaches obs\.Counter\.Add`
	reg.Gauge("enclave.last").Set(int64(len(pt)) + int64(pt[0])) // want `plaintext-derived value reaches obs\.Gauge\.Set`
}

// NameLeaky embeds plaintext in an instrument name: the registry lookup is a
// sink too, since names appear verbatim in snapshots.
func NameLeaky(reg *obs.Registry, aead cipher.AEAD, nonce, sealed []byte) {
	secret, _ := aead.Open(nil, nonce, sealed, nil)
	tag := string(secret)
	reg.Counter("enclave.cek." + tag).Inc() // want `plaintext-derived value reaches obs\.Registry\.Counter`
}

// RecordOpened feeds a cell opened through a crossing's opener into an
// instrument.
func RecordOpened(reg *obs.Registry, op *aecrypto.Opener, arena, cell []byte) {
	pt, _ := op.Open(arena, cell)
	reg.Histogram("enclave.opened").Observe(int64(pt[0])) // want `plaintext-derived value reaches obs\.Histogram\.Observe`
}
