package enclave

import (
	"fmt"

	"aecrypto"
)

// GetCell decrypts and returns the plaintext through the declared result
// slot — the legal channel — and keeps its errors coarse.
func GetCell(key *aecrypto.CellKey, cell []byte) ([]byte, error) {
	if len(cell) == 0 {
		return nil, fmt.Errorf("enclave: empty cell (%d bytes expected)", 1)
	}
	pt, err := key.Decrypt(cell)
	if err != nil {
		// The error result of a decrypt source is a sentinel, not plaintext.
		return nil, fmt.Errorf("enclave: open failed: %w", err)
	}
	out := append([]byte(nil), pt...)
	return out, nil
}

// SealedIntoError: an envelope sealed from plaintext is ciphertext, so
// naming it in an error leaks nothing — Seal is a trust-domain crossing.
func SealedIntoError(op *aecrypto.Opener, s *aecrypto.Sealer, cell []byte) error {
	pt, err := op.Open(nil, cell)
	if err != nil {
		return err
	}
	ct, err := s.Seal(pt, 1)
	if err != nil {
		return err
	}
	return fmt.Errorf("enclave: resealed into envelope %x", ct)
}
