// Package obsleak extends the plaintextflow property to the observability
// subsystem: metrics record only counts, durations and sizes — never key
// material or plaintext. It reuses the shared flow-sensitive taint engine
// and the same decrypt/open source set, but its sinks are the internal/obs
// recording calls (Counter.Add, Histogram.Observe, Registry.Counter(name),
// spans, …) instead of formatting functions. Callee summaries from
// internal/lint/callgraph make the pass interprocedural: handing a tainted
// value to a helper that records it is reported at the call site.
//
// len() and cap() sanitize (universally, shared with every other policy):
// the SIZE of a plaintext buffer is part of the declared observable channel
// (batch sizes, value lengths already cross the boundary as ciphertext
// lengths), so obs.Histogram("x").Observe(int64(len(pt))) is legal while
// Observe(int64(pt[0])) is not.
//
// The pass runs over the enclave, exprsvc and aecrypto packages — the code
// that both handles plaintext and is instrumented.
package obsleak

import (
	"go/ast"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/callgraph"
	"alwaysencrypted/internal/lint/taint"
)

// Analyzer is the obsleak pass.
var Analyzer = &analysis.Analyzer{
	Name:     "obsleak",
	Doc:      "metrics must record only counts, durations and sizes — never plaintext",
	Packages: []string{"enclave", "exprsvc", "aecrypto"},
	Run:      run,
}

// why is each sink kind's declared channel, as its diagnostics state it.
var why = map[string]string{
	"obs":   "metrics record only counts, durations and sizes",
	"trace": "span attributes carry only counts and timings",
}

func run(pass *analysis.Pass) (any, error) {
	oracle := callgraph.For(pass)
	taint.Walk(pass, taint.EnclaveSources(pass), oracle, func(c *taint.Checker, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if kind, name := taint.CallSink(pass.TypesInfo, call); why[kind] != "" {
			for _, arg := range call.Args {
				if c.ExprTainted(arg) {
					pass.Reportf(arg.Pos(),
						"plaintext-derived value reaches %s.%s: %s, never plaintext or key material",
						kind, name, why[kind])
				}
			}
		}
		for _, kind := range []string{"obs", "trace"} {
			for _, hit := range callgraph.CallSiteHits(c, pass.TypesInfo, call, oracle, kind) {
				pass.Reportf(call.Pos(),
					"plaintext-derived value reaches %s.%s inside %s: %s, never plaintext or key material",
					kind, hit.Desc, analysis.CalleeFunc(pass.TypesInfo, call).Name(), why[kind])
			}
		}
	})
	return nil, nil
}
