// Package atomicmix enforces the one rule function-form sync/atomic cannot
// enforce for itself: a location accessed through atomic.Add/Load/Store/
// Swap/CompareAndSwap anywhere must be accessed that way EVERYWHERE. A
// plain read races with the atomic writers (torn or stale values feeding
// the §4.6 boundary-crossing counters), and a plain write can be lost under
// an atomic RMW — both invisible to -race unless the schedule cooperates,
// which is exactly why a static check pays for itself. Typed atomics
// (atomic.Uint64, atomic.Bool, …) are immune by construction — the value is
// unexported behind methods — and the repo's own counters use them; this
// pass exists for the function-form escape hatch that mixed idioms arrive
// through.
//
// The guarded locations are every object whose address a function-form
// sync/atomic call takes — package-level variables, and struct fields keyed
// by their types.Var (field identity is per declaration, so every instance
// of the struct shares the verdict). Every other mention of them outside an
// atomic call's address argument is flagged, except on a local the function
// itself allocated (&T{…}, new(T), T{…} value): that is constructor
// initialization of an object not yet published. The walk is the
// guarded-access rule shared with enclavestate.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/guarded"
)

// Analyzer is the atomicmix pass.
var Analyzer = guarded.NewAnalyzer(&guarded.Rule{
	Name:      "atomicmix",
	Doc:       "a location accessed through sync/atomic must never also be accessed plainly",
	Locations: atomicTargets,
	Allowed:   isAtomicAddress,
})

// atomicTargets finds every object (package var or struct field) whose
// address feeds a function-form sync/atomic call, naming one
// representative atomic call in the diagnostic.
func atomicTargets(pass *analysis.Pass) map[types.Object]string {
	locs := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass.TypesInfo, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if obj := addressedObject(pass.TypesInfo, un.X); obj != nil && locs[obj] == "" {
					at := pass.Fset.Position(call.Pos())
					locs[obj] = fmt.Sprintf(
						"%s is accessed through sync/atomic (%s:%d) but plainly here: mixed access races — use sync/atomic everywhere or a typed atomic",
						obj.Name(), filepath.Base(at.Filename), at.Line)
				}
			}
			return true
		})
	}
	return locs
}

// addressedObject resolves &expr's target: a struct field's types.Var or a
// variable object.
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	switch t := e.(type) {
	case *ast.ParenExpr:
		return addressedObject(info, t.X)
	case *ast.SelectorExpr:
		if s := info.Selections[t]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return info.Uses[t.Sel]
	case *ast.Ident:
		return info.Uses[t]
	}
	// &arr[i]: per-element atomicity is beyond field identity.
	return nil
}

func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// isAtomicAddress sanctions the address argument of an atomic call: it is
// the atomic access itself.
func isAtomicAddress(info *types.Info, call *ast.CallExpr, arg ast.Expr) bool {
	un, ok := arg.(*ast.UnaryExpr)
	return ok && un.Op == token.AND && isAtomicCall(info, call)
}
