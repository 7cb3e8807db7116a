package enclave

import (
	"crypto/sha256"
	"strings"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// ConversionParse is the parse-tree summary of an ALTER TABLE ALTER COLUMN
// statement that SQL Server supplies as proof material (§3.2): the enclave
// cross-checks it against the raw query text and the client-authorized hash
// before exposing its Encrypt function.
type ConversionParse struct {
	Table    string
	Column   string
	ToCEK    string // empty when converting to plaintext (decryption-only)
	ToScheme sqltypes.EncScheme
}

// ConversionProof is what SQL Server presents to unlock a type conversion:
// the raw DDL text (whose SHA-256 the client sealed into the session) plus
// the parse tree the server derived from it.
type ConversionProof struct {
	QueryText string
	Parse     ConversionParse
}

// validate implements the §3.2 check: (1) the SHA-256 of the query text must
// have been explicitly authorized by the client over the secure channel, and
// (2) the parse tree must be consistent with the text — the statement is an
// ALTER TABLE ALTER COLUMN naming exactly the table, column and target key
// of the requested conversion. Without (1) the untrusted server would hold a
// free encryption oracle; without (2) it could reuse an authorized statement
// to authorize a different conversion.
func (s *session) validateConversion(p *ConversionProof) error {
	h := sha256.Sum256([]byte(p.QueryText))
	if !s.authorized[h] {
		return ErrNotAuthorized
	}
	text := strings.ToUpper(p.QueryText)
	if !strings.Contains(text, "ALTER TABLE") || !strings.Contains(text, "ALTER COLUMN") {
		return ErrNotAuthorized
	}
	for _, ident := range []string{p.Parse.Table, p.Parse.Column, p.Parse.ToCEK} {
		if ident == "" {
			continue
		}
		if !containsIdent(text, strings.ToUpper(ident)) {
			return ErrNotAuthorized
		}
	}
	return nil
}

// containsIdent reports whether ident appears in text delimited by
// non-identifier characters, so CEK "K1" does not match "K10".
func containsIdent(text, ident string) bool {
	for i := 0; i+len(ident) <= len(text); i++ {
		j := strings.Index(text[i:], ident)
		if j < 0 {
			return false
		}
		start := i + j
		end := start + len(ident)
		beforeOK := start == 0 || !isIdentChar(text[start-1])
		afterOK := end == len(text) || !isIdentChar(text[end])
		if beforeOK && afterOK {
			return true
		}
		i = start
	}
	return false
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
}

// ConvertCells re-encrypts a batch of cells from one encryption type to
// another inside the enclave: the machinery behind enclave-side initial
// encryption and CEK rotation (§2.4.2), which avoids the week-long client
// round trip of AEv1 for terabyte databases. Empty cells (SQL NULL) pass
// through. The conversion requires a valid client authorization proof for
// the session — this is the only path on which the enclave will encrypt.
func (e *Enclave) ConvertCells(sid uint64, proof *ConversionProof, from, to sqltypes.EncType, cells [][]byte) ([][]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.mu.RLock()
	s, ok := e.sessions[sid]
	e.mu.RUnlock()
	if !ok {
		return nil, ErrNoSession
	}
	if err := s.validateConversion(proof); err != nil {
		return nil, err
	}
	// The target of the conversion must match what the client authorized.
	if to.IsPlaintext() {
		if proof.Parse.ToCEK != "" {
			return nil, ErrNotAuthorized
		}
	} else if proof.Parse.ToCEK != to.CEKName || proof.Parse.ToScheme != to.Scheme {
		return nil, ErrNotAuthorized
	}

	var fromKey, toKey *aecrypto.CellKey
	var err error
	ring := (*enclaveKeyRing)(e)
	if !from.IsPlaintext() {
		if fromKey, err = ring.CellKey(from.CEKName); err != nil {
			return nil, err
		}
	}
	if !to.IsPlaintext() {
		if toKey, err = ring.CellKey(to.CEKName); err != nil {
			return nil, err
		}
	}
	toType := aecrypto.Randomized
	if to.Scheme == sqltypes.SchemeDeterministic {
		toType = aecrypto.Deterministic
	}

	out := make([][]byte, len(cells))
	convert := func() error {
		for i, cell := range cells {
			if len(cell) == 0 {
				continue // NULLs are stored unencrypted as absent values
			}
			pt := cell
			if fromKey != nil {
				pt, err = fromKey.Decrypt(cell)
				if err != nil {
					return err
				}
			}
			if toKey == nil {
				out[i] = pt
				continue
			}
			ct, err := toKey.Encrypt(pt, toType)
			if err != nil {
				return err
			}
			out[i] = ct
		}
		return nil
	}
	e.enter(func() { err = convert() })
	if err != nil {
		return nil, err
	}
	e.converts.Add(uint64(len(cells)))
	return out, nil
}
