// Package aecrypto is a fixture stub of the real cell-crypto package: the
// analyzer matches CellKey.Decrypt, CellKey.NewOpener, CellKey.NewSealer,
// Opener.Open and GenerateKey by package and receiver.
package aecrypto

// CellKey mirrors the derived-key holder.
type CellKey struct{ root []byte }

// Decrypt stands in for envelope opening; its first result is plaintext.
func (k *CellKey) Decrypt(envelope []byte) ([]byte, error) {
	return envelope, nil
}

// GenerateKey mirrors CEK generation; its first result is key material.
func GenerateKey() ([]byte, error) {
	return make([]byte, 32), nil
}

// Zeroize wipes a byte slice.
func Zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Opener mirrors the per-crossing opener; it carries the key's schedule.
type Opener struct{ k *CellKey }

// NewOpener mirrors scheduling a cell key for opening.
func (k *CellKey) NewOpener() (*Opener, error) { return &Opener{k: k}, nil }

// Open stands in for opening into an arena; its first result is plaintext.
func (o *Opener) Open(dst, envelope []byte) ([]byte, error) {
	return envelope, nil
}

// Zeroize retires the opener.
func (o *Opener) Zeroize() { o.k = nil }

// Sealer mirrors the per-call sealer; it carries the key's schedule.
type Sealer struct{ k *CellKey }

// NewSealer mirrors scheduling a cell key for sealing.
func (k *CellKey) NewSealer() (*Sealer, error) { return &Sealer{k: k}, nil }
