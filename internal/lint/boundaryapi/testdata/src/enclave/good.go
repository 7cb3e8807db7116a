package enclave

import (
	"aecrypto"
	"sqltypes"
)

// Compare returns a declared comparison result over ciphertext — the legal
// boundary shape.
func (e *Enclave) Compare(cekName string, a, b []byte) (int, error) {
	return 0, nil
}

// InstallCEK carries a sealed blob and a handle.
func (e *Enclave) InstallCEK(sid uint64, sealed []byte) error { return nil }

// DescribeEnc returns boundary-safe metadata.
func DescribeEnc(column string) sqltypes.EncType { return sqltypes.EncType{} }

// cellKey is unexported: enclave-internal plumbing may pass key material
// and plaintext freely.
func (e *Enclave) cellKey(name string) (*aecrypto.CellKey, error) { return nil, nil }

func decodeInternal(b []byte) (sqltypes.Value, error) { return sqltypes.Value{}, nil }

// openerFor is unexported: a crossing's opener stays inside the enclave.
func (e *Enclave) openerFor(name string) (*aecrypto.Opener, error) { return nil, nil }
