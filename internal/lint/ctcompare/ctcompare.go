// Package ctcompare enforces constant-time comparison of secret-derived
// data: key material (CEK roots, derived keys, ECDH shared secrets, HMAC
// outputs) and decrypted plaintext must never flow into a variable-time
// comparison — bytes.Equal, bytes.Compare, or the ==/!=/< family over
// integers, strings and byte arrays. Such comparisons branch on secret
// bytes and become remote timing oracles (the classic CBC padding oracle is
// exactly a variable-time comparison over decrypted padding bytes).
//
// crypto/subtle and hmac.Equal are the sanctioned primitives and are
// universal sanitizers in the shared taint engine, so code using them is
// clean by construction. Branching on err != nil is control flow over an
// interface, not data, and is never flagged.
//
// The pass reuses the flow-sensitive taint engine with the SECRET source
// policy (key material, HMAC objects, ECDH outputs) plus the engine's
// built-in CBC-decrypter destination propagation (pre-authentication
// padding bytes), and is interprocedural via callgraph summaries: handing a
// secret to a helper whose own body compares it variable-time is reported
// at the call site.
//
// Decrypted application plaintext is deliberately NOT a source here: the
// driver decodes and compares its own query results as a matter of course,
// and those values are the caller's data, not a secret an observer times.
// The timing-sensitive surfaces are key bytes, MACs, and padding — exactly
// the secret source set.
//
// Scope: aecrypto, keys, attestation, driver and tds — the packages that
// touch raw key bytes and MACs on the host side. The enclave package is
// excluded by design: its whole purpose is rich computation (including
// ordinary comparisons) over decrypted cell values, protected by hardware
// isolation rather than code discipline (§3).
package ctcompare

import (
	"go/ast"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/callgraph"
	"alwaysencrypted/internal/lint/taint"
)

// Analyzer is the ctcompare pass: aecrypto, keys, attestation, driver and
// tds are held to the constant-time comparison discipline.
var Analyzer = &analysis.Analyzer{
	Name:     "ctcompare",
	Doc:      "secret-derived data must be compared in constant time (subtle.ConstantTimeCompare, hmac.Equal)",
	Packages: []string{"aecrypto", "keys", "attestation", "driver", "tds"},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	oracle := callgraph.For(pass)
	taint.Walk(pass, taint.SecretSources(pass), oracle, func(c *taint.Checker, n ast.Node) {
		if desc, operands := taint.CompareSink(pass.TypesInfo, n); desc != "" {
			for _, op := range operands {
				if c.ExprTainted(op) {
					pass.Reportf(n.Pos(),
						"secret-derived value in variable-time comparison (%s): use crypto/subtle.ConstantTimeCompare or hmac.Equal",
						desc)
					break
				}
			}
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, hit := range callgraph.CallSiteHits(c, pass.TypesInfo, call, oracle, "compare") {
				callee := analysis.CalleeFunc(pass.TypesInfo, call)
				pass.Reportf(call.Pos(),
					"secret-derived value reaches variable-time comparison (%s) inside %s: use crypto/subtle.ConstantTimeCompare or hmac.Equal",
					hit.Desc, callee.Name())
			}
		}
	})
	return nil, nil
}
