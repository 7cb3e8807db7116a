package enclave

import (
	"aecrypto"
	"sqltypes"
)

// rows is a container that transitively holds plaintext.
type rows struct {
	Vals []sqltypes.Value
}

// Decrypted is an exported wire record holding plaintext.
type Decrypted struct {
	Rows []rows // want `exported struct Decrypted carries plaintext type \[\]enclave\.rows`
}

// Enclave is the fixture boundary owner.
type Enclave struct{ ceks map[string]*aecrypto.CellKey }

// Reveal returns plaintext across the boundary.
func (e *Enclave) Reveal(handle uint64) (sqltypes.Value, error) { // want `exported Reveal returns plaintext-carrying type sqltypes\.Value`
	return sqltypes.Value{}, nil
}

// Ingest accepts plaintext across the boundary.
func (e *Enclave) Ingest(v []sqltypes.Value) error { // want `exported Ingest accepts plaintext-carrying type \[\]sqltypes\.Value`
	return nil
}

// LeakKey hands key material to the host.
func (e *Enclave) LeakKey(name string) *aecrypto.CellKey { // want `exported LeakKey returns key material \(aecrypto\.CellKey\)`
	return e.ceks[name]
}

// OpenerFor hands the host an opener: the key schedule leaves with it.
func (e *Enclave) OpenerFor(name string) (*aecrypto.Opener, error) { // want `exported OpenerFor returns key material \(aecrypto\.Opener\)`
	return nil, nil
}

// SealerFor hands the host a sealer: an encryption oracle with its key.
func (e *Enclave) SealerFor(name string) *aecrypto.Sealer { // want `exported SealerFor returns key material \(aecrypto\.Sealer\)`
	return nil
}
