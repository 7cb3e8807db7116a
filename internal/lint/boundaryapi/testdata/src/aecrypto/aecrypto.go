// Package aecrypto is a fixture stub for key-material detection.
package aecrypto

// CellKey mirrors the derived key holder.
type CellKey struct{ root []byte }

// Opener mirrors the per-crossing opener, which carries a key schedule.
type Opener struct{ k *CellKey }

// Sealer mirrors the per-call sealer, which carries a key schedule.
type Sealer struct{ k *CellKey }
