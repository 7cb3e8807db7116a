package enclave

import (
	"errors"
	"fmt"

	"aecrypto"
)

func decode(b []byte) string { return string(b) }

// CompareLeaky interpolates decrypted values into error paths.
func CompareLeaky(key *aecrypto.CellKey, a, b []byte) (int, error) {
	pa, err := key.Decrypt(a)
	if err != nil {
		return 0, err
	}
	pb, err := key.Decrypt(b)
	if err != nil {
		return 0, err
	}
	if len(pa) != len(pb) {
		return 0, fmt.Errorf("enclave: cannot compare %q and %q", pa, pb) // want `plaintext-derived value reaches fmt\.Errorf` `plaintext-derived value reaches fmt\.Errorf`
	}
	va := decode(pa)
	vb := decode(pb)
	if va == vb {
		return 0, nil
	}
	return 0, errors.New("enclave: mismatch: " + va + " != " + vb) // want `plaintext-derived value reaches errors\.New`
}

// OpenAndLog leaks via Sprintf and panic.
func OpenAndLog(key *aecrypto.CellKey, cell []byte) string {
	pt, _ := key.Decrypt(cell)
	msg := fmt.Sprintf("decrypted: %x", pt) // want `plaintext-derived value reaches fmt\.Sprintf`
	if len(pt) == 0 {
		panic(string(pt)) // want `plaintext-derived value reaches panic`
	}
	return msg
}

// OpenedIntoError interpolates a cell opened through a crossing's opener
// into an error.
func OpenedIntoError(op *aecrypto.Opener, arena, cell []byte) error {
	pt, err := op.Open(arena, cell)
	if err != nil {
		return err
	}
	return fmt.Errorf("enclave: unexpected cell %x", pt) // want `plaintext-derived value reaches fmt\.Errorf`
}
