// Package enclavestate statically enforces the §4.6 state discipline of the
// enclave: "to simplify synchronization issues all state changes ... are
// handled by a single enclave thread". Concretely, inside the enclave
// package every write to a field of Enclave or session must happen either
//
//   - inside a func literal passed to (*Enclave).mutate, which runs the
//     closure on the dedicated state goroutine under the write lock, or
//   - on a value freshly constructed in the same function and not yet
//     published (constructors like Load and NewSession), since unshared
//     state needs no synchronization.
//
// Any other write — in particular one made directly from an exported host
// entry point — is flagged. Reads are not checked (readers take mu.RLock,
// which the race detector polices dynamically); this analyzer guards the
// mutation funnel that the enclave's security argument leans on. The walk
// is the guarded-access rule shared with atomicmix.
package enclavestate

import (
	"fmt"
	"go/ast"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/guarded"
)

// guardedTypes are the enclave-private state carriers.
var guardedTypes = []string{"Enclave", "session"}

// Analyzer is the enclavestate pass.
var Analyzer = guarded.NewAnalyzer(&guarded.Rule{
	Name:       "enclavestate",
	Doc:        "enclave state fields must be mutated via mutate() on the state thread",
	Packages:   []string{"enclave"},
	Locations:  stateFields,
	WritesOnly: true,
	Allowed:    inMutateLiteral,
})

// stateFields guards every field of the state-carrier types.
func stateFields(pass *analysis.Pass) map[types.Object]string {
	locs := map[types.Object]string{}
	for _, name := range guardedTypes {
		tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			locs[st.Field(i)] = fmt.Sprintf(
				"direct write to %s.%s outside mutate(): enclave state changes must run on the state thread (§4.6)",
				name, st.Field(i).Name())
		}
	}
	return locs
}

// inMutateLiteral sanctions writes inside a func literal passed to a method
// named mutate.
func inMutateLiteral(_ *types.Info, call *ast.CallExpr, arg ast.Expr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	_, lit := arg.(*ast.FuncLit)
	return ok && lit && sel.Sel.Name == "mutate"
}
