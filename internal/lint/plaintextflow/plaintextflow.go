// Package plaintextflow is a taint pass that re-proves, statically, the "no
// plaintext in error paths" property the enclave currently asserts only in
// comments and tests (§4.4.1: failures surface as coarse information;
// Figure 5: only declared comparison results cross the boundary in the
// clear).
//
// Sources are the shared decrypt/open primitive set (taint.EnclaveSources);
// propagation is the flow-sensitive engine in internal/lint/taint, so a
// buffer that is overwritten with clean data before a format call is not
// flagged, and one tainted only on some branch is flagged only after the
// merge. Summaries from internal/lint/callgraph make the pass
// interprocedural: passing a tainted value to a helper whose summary shows
// the parameter reaching fmt/log/panic is reported at the call site.
//
// Sinks — host-visible formatting channels where plaintext must never land:
// fmt.Errorf / Sprintf / Sprint / Sprintln / Print / Printf / Println /
// Fprintf / Fprint / Fprintln, errors.New, every log.* printer, and panic
// (panics convert to host-visible faults). Returning a tainted value is NOT
// a sink: declared result slots are how plaintext-derived results legally
// leave an evaluation (the caller is responsible for them being ciphertext
// or declared comparison outputs).
//
// The pass runs over the enclave, exprsvc, aecrypto, keys and attestation
// packages — the code that handles plaintext or key material inside the
// trust boundary.
package plaintextflow

import (
	"go/ast"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/callgraph"
	"alwaysencrypted/internal/lint/taint"
)

// Analyzer is the plaintextflow pass.
var Analyzer = &analysis.Analyzer{
	Name:     "plaintextflow",
	Doc:      "decrypted values must not reach error messages, logs or panics",
	Packages: []string{"enclave", "exprsvc", "aecrypto", "keys", "attestation"},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	oracle := callgraph.For(pass)
	taint.Walk(pass, taint.EnclaveSources(pass), oracle, func(c *taint.Checker, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			checkSink(pass, c, call)
			checkCallSite(pass, c, oracle, call)
		}
	})
	return nil, nil
}

// checkSink reports tainted arguments reaching a formatting/panic sink.
func checkSink(pass *analysis.Pass, c *taint.Checker, call *ast.CallExpr) {
	kind, name := taint.CallSink(pass.TypesInfo, call)
	if kind != "format" {
		return
	}
	for _, arg := range call.Args {
		if c.ExprTainted(arg) {
			pass.Reportf(arg.Pos(),
				"plaintext-derived value reaches %s: decrypted data must stay inside the enclave boundary; errors must be coarse (§4.4.1)",
				name)
		}
	}
}

// checkCallSite reports tainted arguments flowing into a callee whose
// summary shows them reaching a formatting sink.
func checkCallSite(pass *analysis.Pass, c *taint.Checker, oracle taint.Oracle, call *ast.CallExpr) {
	for _, hit := range callgraph.CallSiteHits(c, pass.TypesInfo, call, oracle, "format") {
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		pass.Reportf(call.Pos(),
			"plaintext-derived value reaches %s inside %s: decrypted data must stay inside the enclave boundary; errors must be coarse (§4.4.1)",
			hit.Desc, fn.Name())
	}
}
