package aecrypto

// Zeroize overwrites b with zeros. It is the repo-wide key-material hygiene
// primitive: every local that receives raw key bytes from GenerateKey,
// deriveKey, UnwrapKey or a provider Unwrap must either transfer ownership
// or pass through Zeroize on every return path (enforced by the keyzero
// analyzer). The loop is recognized by the compiler and lowered to an
// efficient clear; the write is not elided because callers retain the slice.
func Zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Zeroize wipes the three derived keys and the two HMAC keys' schedules. After the call the CellKey can no
// longer encrypt or decrypt; use it only when retiring a key (cache
// eviction, enclave teardown).
func (k *CellKey) Zeroize() {
	Zeroize(k.encKey)
	Zeroize(k.macKey)
	Zeroize(k.ivKey)
	k.mac.Zeroize()
	k.iv.Zeroize()
}
