// Package aecrypto is a fixture stub: the opener declares the disposal
// protocol, which is what makes it secret-bearing to the analyzer.
package aecrypto

// Opener mirrors the per-crossing opener of the real package.
type Opener struct{ sum [32]byte }

// Zeroize retires the opener.
func (o *Opener) Zeroize() { o.sum = [32]byte{} }
