// Package aecrypto is a fixture stub of the real cell-crypto package: the
// analyzer matches CellKey.Decrypt and Opener.Open by receiver and package
// name.
package aecrypto

// CellKey mirrors the derived-key holder.
type CellKey struct{ root []byte }

// Decrypt stands in for envelope opening; its first result is plaintext.
func (k *CellKey) Decrypt(envelope []byte) ([]byte, error) {
	return envelope, nil
}

// Opener mirrors the per-crossing opener of many cells under one key.
type Opener struct{ k *CellKey }

// NewOpener mirrors scheduling a cell key for opening.
func (k *CellKey) NewOpener() (*Opener, error) { return &Opener{k: k}, nil }

// Open stands in for opening an envelope into an arena; its first result is
// plaintext.
func (o *Opener) Open(dst, envelope []byte) ([]byte, error) {
	return envelope, nil
}
