// Package trust is the trust-boundary vocabulary of the aelint suite: the
// one table that says which APIs yield plaintext or key material, which
// move data across a trust domain, and which types are key material (§3,
// §4.4.1: plaintext and keys exist only inside the enclave and the client,
// and every exit is a declared, sealed channel). The taint policies
// (plaintextflow, obsleak, ctcompare and the callgraph summaries),
// secretescape, keyzero and boundaryapi all read their sources, boundaries
// and key types from this table, so a new crypto API is registered by
// adding one row here.
package trust

import (
	"go/ast"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
)

// Role is one way an API matters to the trust boundary; a row carries a
// set of them, and each role names the analyzers that read it.
type Role uint16

const (
	Plaintext        Role = 1 << iota // results are decrypted plaintext: SrcPlaintext (plaintextflow, obsleak)
	EnclavePlaintext                  // Plaintext when called from the enclave package; host callers consume it legitimately
	SharedKey                         // results are a key agreed with a peer: SrcKeyMaterial (plaintextflow, obsleak)
	Secret                            // results are key bytes or a keyed state: SrcKeyMaterial (ctcompare)
	Owned                             // the direct result is raw key material to zeroize on every return path (keyzero)
	Root                              // results are a secret for as long as they live (secretescape)
	Boundary                          // a seal or open: results carry only what a source role gives them, never the operands' labels
	DecryptsInto                      // decrypts into its first argument
	Decrypter                         // builds a block mode whose CryptBlocks decrypts into its first argument
	KeyType                           // a type whose values are key material (boundaryapi)
)

// API is one row of the vocabulary: a call pattern (for KeyType rows, Pkg
// and Name name the type) and its roles.
type API struct {
	analysis.CallPat
	Roles Role
}

// Vocabulary is every trust-relevant API. Package short names follow
// analysis.PackagePathIs; Recv "*" matches methods and plain functions.
var Vocabulary = []API{
	// Cell encryption (§2.3) and its per-crossing schedules.
	{analysis.CallPat{Pkg: "aecrypto", Recv: "CellKey", Name: "Decrypt"}, Plaintext | Boundary | Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "CellKey", Name: "Encrypt"}, Boundary},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "CellKey", Name: "Verify"}, Boundary},
	// An opener or sealer carries its cell key's AES schedule and MAC
	// state: it is key material for as long as it lives.
	{analysis.CallPat{Pkg: "aecrypto", Recv: "CellKey", Name: "NewOpener"}, Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "CellKey", Name: "NewSealer"}, Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "Opener", Name: "Open"}, Plaintext | Boundary | Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "Sealer", Name: "Seal"}, Boundary},
	{analysis.CallPat{Pkg: "aecrypto", Name: "CellKey"}, KeyType},
	{analysis.CallPat{Pkg: "aecrypto", Name: "Opener"}, KeyType},
	{analysis.CallPat{Pkg: "aecrypto", Name: "Sealer"}, KeyType},
	// Key generation, derivation and unwrapping.
	{analysis.CallPat{Pkg: "aecrypto", Recv: "*", Name: "GenerateKey"}, Secret | Owned | Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "*", Name: "deriveKey"}, Secret | Owned | Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "*", Name: "UnwrapKey"}, Owned | Root},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "*", Name: "GenerateRSAKey"}, Root},
	// A wrapped CEK and a signature are public.
	{analysis.CallPat{Pkg: "aecrypto", Recv: "*", Name: "WrapKey"}, Boundary},
	{analysis.CallPat{Pkg: "aecrypto", Recv: "*", Name: "Sign"}, Boundary},
	{analysis.CallPat{Pkg: "keys", Recv: "*", Name: "Unwrap"}, Secret | Owned | Root},
	{analysis.CallPat{Pkg: "attestation", Recv: "*", Name: "DeriveSecret"}, Secret | Owned | Root},
	// The enclave session's sealed channel; its payloads carry wrapped keys.
	{analysis.CallPat{Pkg: "enclave", Recv: "session", Name: "openSealed"}, Plaintext | Secret | Owned | Boundary | Root},
	{analysis.CallPat{Pkg: "enclave", Name: "SealForSession"}, Boundary},
	// Enclave-side expression evaluation over decrypted cells.
	{analysis.CallPat{Pkg: "exprsvc", Recv: "Evaluator", Name: "Eval"}, EnclavePlaintext},
	{analysis.CallPat{Pkg: "exprsvc", Recv: "Evaluator", Name: "EvalBool"}, EnclavePlaintext},
	// The standard library.
	{analysis.CallPat{Pkg: "crypto/cipher", Recv: "AEAD", Name: "Open"}, Plaintext | Boundary | Root},
	{analysis.CallPat{Pkg: "crypto/cipher", Recv: "AEAD", Name: "Seal"}, Boundary},
	{analysis.CallPat{Pkg: "crypto/cipher", Recv: "Block", Name: "Decrypt"}, DecryptsInto},
	{analysis.CallPat{Pkg: "crypto/cipher", Name: "NewCBCDecrypter"}, Decrypter},
	{analysis.CallPat{Pkg: "crypto/ecdh", Recv: "PrivateKey", Name: "ECDH"}, SharedKey | Secret | Owned | Root},
	// The keyed hash object; its Sum results inherit through the receiver.
	{analysis.CallPat{Pkg: "crypto/hmac", Name: "New"}, Secret},
	{analysis.CallPat{Pkg: "crypto/rsa", Name: "PrivateKey"}, KeyType},
	{analysis.CallPat{Pkg: "crypto/ecdh", Name: "PrivateKey"}, KeyType},
}

// Display names a row in diagnostics: Recv.Name for methods of a named
// type, Pkg.Name otherwise (aecrypto.GenerateKey, crypto/rsa.PrivateKey).
func (a API) Display() string {
	if a.Recv != "" && a.Recv != "*" {
		return a.Recv + "." + a.Name
	}
	return a.Pkg + "." + a.Name
}

// Call returns the row call matches; a call matching no row gets the zero
// API, whose Roles are empty.
func Call(info *types.Info, call *ast.CallExpr) API {
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	for _, api := range Vocabulary {
		if api.Name != name || api.Roles&KeyType != 0 {
			continue
		}
		if _, ok := api.Match(info, call); ok {
			return api
		}
	}
	return API{}
}

// Patterns returns the call patterns of every row with role r.
func Patterns(r Role) []analysis.CallPat {
	var out []analysis.CallPat
	for _, api := range Vocabulary {
		if api.Roles&r != 0 {
			out = append(out, api.CallPat)
		}
	}
	return out
}

// KeyMaterial returns the display name of the key-material type t is,
// directly or through one pointer, or "".
func KeyMaterial(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	for _, api := range Vocabulary {
		if api.Roles&KeyType != 0 && n.Obj().Name() == api.Name && analysis.PackagePathIs(n.Obj().Pkg(), api.Pkg) {
			return api.Display()
		}
	}
	return ""
}
