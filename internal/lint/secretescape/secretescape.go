// Package secretescape proves, per function, that decrypted plaintext, CEKs
// and session keys never leave the enclave trust domain through an
// unstructured door: a package-level variable, a goroutine spawn, a channel
// the frame does not own, or a callback handed to code outside
// internal/enclave / internal/aecrypto (§3, §4.6: the enclave's security
// argument is that key material and plaintext exist only inside the
// protected region; every exit must be a declared, sealed channel). It is
// the precondition audit for the ROADMAP enclave-resident decrypted-key
// cache: before keys are allowed to live long, every way one can slip out
// must be mechanically enumerable.
//
// The engine is internal/lint/escape: each decrypt/derive/unwrap call
// births a root, and the analyzer reports the escape events whose door is
// illegitimate. Returns and stores into caller-owned aggregates are NOT
// reported — declared result slots are how values legally move (the caller
// is inside the trust domain too, or plaintextflow/boundaryapi catch it),
// and aggregate lifetime hygiene is secretretain's contract. Plain call
// arguments are borrows. What remains — globals, spawns, foreign-channel
// sends, and func-valued captures leaving the trusted packages — is exactly
// the set of doors a frame cannot audit locally, which is why each one is a
// finding.
package secretescape

import (
	"go/ast"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/escape"
	"alwaysencrypted/internal/lint/taint"
)

// Analyzer is the secretescape pass; it audits the frames of the enclave
// and aecrypto packages.
var Analyzer = &analysis.Analyzer{
	Name:     "secretescape",
	Doc:      "decrypted plaintext and key material must not escape the enclave trust domain via globals, goroutines, channels or foreign callbacks",
	Packages: []string{"enclave", "aecrypto"},
	Run:      run,
}

// calleeTrusted are the package short names a func-valued argument may
// legally be handed to: registration inside the trust domain keeps the
// callback under enclave control.
var calleeTrusted = []string{"enclave", "aecrypto", "exprsvc"}

func run(pass *analysis.Pass) (any, error) {
	cfg := escape.Config{Pass: pass, Source: sourceName(pass)}
	pass.FuncDecls(func(fn *ast.FuncDecl) {
		for _, ev := range escape.Analyze(cfg, fn) {
			report(pass, ev)
		}
	})
	return nil, nil
}

func report(pass *analysis.Pass, ev escape.Event) {
	switch ev.Kind {
	case escape.KindGlobal:
		pass.Reportf(ev.Pos,
			"secret from %s escapes to a package-level variable: globals outlive every frame and are invisible to zeroization (§3)",
			ev.RootSrc)
	case escape.KindGo:
		pass.Reportf(ev.Pos,
			"secret from %s escapes into a spawned goroutine: the spawn outlives the frame, so the secret's lifetime is no longer auditable here (§4.6)",
			ev.RootSrc)
	case escape.KindSend:
		pass.Reportf(ev.Pos,
			"secret from %s is sent on a channel this frame does not own: whoever drains it now holds key material outside this frame's control (§4.6)",
			ev.RootSrc)
	case escape.KindCall:
		if !ev.FuncArg || calleeInTrustDomain(ev.Callee) {
			return
		}
		callee := "an unresolved function value"
		if ev.Callee != nil {
			callee = ev.Callee.FullName()
		}
		pass.Reportf(ev.Pos,
			"secret from %s is captured by a callback handed to %s, outside the enclave trust domain (§3)",
			ev.RootSrc, callee)
	case escape.KindStore, escape.KindReturn:
		// Declared channels: caller-owned aggregates are secretretain's
		// contract, result slots are the legal exit.
	}
}

func calleeInTrustDomain(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	for _, p := range calleeTrusted {
		if analysis.PackagePathIs(fn.Pkg(), p) {
			return true
		}
	}
	return false
}

// sourceName is the union of the suite's plaintext and key-material source
// shapes, each mapped to a display name.
func sourceName(pass *analysis.Pass) func(call *ast.CallExpr) string {
	return func(call *ast.CallExpr) string {
		fn := taint.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return ""
		}
		recv := taint.RecvTypeName(fn)
		switch fn.Name() {
		case "Decrypt":
			if recv == "CellKey" && analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return "CellKey.Decrypt"
			}
		case "Open":
			if recv == "AEAD" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/cipher" {
				return "AEAD.Open"
			}
			if recv == "Opener" && analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return "Opener.Open"
			}
		case "NewOpener", "NewSealer":
			// An opener or sealer carries its cell key's AES schedule and
			// MAC state: it is key material for as long as it lives.
			if recv == "CellKey" && analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return "CellKey." + fn.Name()
			}
		case "openSealed":
			if recv == "session" && analysis.PackagePathIs(fn.Pkg(), "enclave") {
				return "session.openSealed"
			}
		case "ECDH":
			if recv == "PrivateKey" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/ecdh" {
				return "PrivateKey.ECDH"
			}
		case "GenerateKey", "deriveKey", "GenerateRSAKey", "UnwrapKey":
			if analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return "aecrypto." + fn.Name()
			}
		case "Unwrap":
			if analysis.PackagePathIs(fn.Pkg(), "keys") {
				return "keys.Unwrap"
			}
		case "DeriveSecret":
			if analysis.PackagePathIs(fn.Pkg(), "attestation") {
				return "attestation.DeriveSecret"
			}
		}
		return ""
	}
}
