// Package guarded is the one walk behind the access-discipline analyzers
// (enclavestate, atomicmix): a guarded location — a struct field or a
// variable — may be accessed only inside an allowed context, except
// through a local the function constructed itself, whose writes cannot race
// with anyone because nothing else can see the value yet.
//
// A Rule is a table of four things: which locations are guarded, what
// counts as an access (writes only, or every mention), the allowed context
// (an argument of a sanctioned call), and the diagnostic.
package guarded

import (
	"go/ast"
	"go/token"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
)

// Rule is one guarded-access table.
type Rule struct {
	Name     string
	Doc      string
	Packages []string
	// Locations returns the package's guarded locations (field or variable
	// objects), each mapped to the diagnostic reported at an access made
	// outside an allowed context.
	Locations func(pass *analysis.Pass) map[types.Object]string
	// WritesOnly restricts accesses to writes: assignment and ++/--
	// targets (through indexing and dereference) and delete's map
	// argument. Otherwise every mention is an access.
	WritesOnly bool
	// Allowed reports whether an access inside argument arg of call is
	// sanctioned.
	Allowed func(info *types.Info, call *ast.CallExpr, arg ast.Expr) bool
}

// NewAnalyzer compiles a rule into an analyzer.
func NewAnalyzer(r *Rule) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:     r.Name,
		Doc:      r.Doc,
		Packages: r.Packages,
		Run:      func(pass *analysis.Pass) (any, error) { r.run(pass); return nil, nil },
	}
}

func (r *Rule) run(pass *analysis.Pass) {
	locs := r.Locations(pass)
	if len(locs) == 0 {
		return
	}
	info := pass.TypesInfo
	pass.FuncDecls(func(fd *ast.FuncDecl) {
		fresh := freshLocals(info, fd.Body)
		analysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			for _, e := range r.accesses(info, n, stack) {
				obj, pos, base := location(info, e)
				msg, guarded := locs[obj]
				if !guarded || (base != nil && fresh[baseObject(info, base)]) || r.allowed(info, n, stack) {
					continue
				}
				pass.Reportf(pos, "%s", msg)
			}
			return true
		})
	})
}

// accesses returns the expressions node n accesses under the rule.
func (r *Rule) accesses(info *types.Info, n ast.Node, stack []ast.Node) []ast.Expr {
	if !r.WritesOnly {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return []ast.Expr{n}
		case *ast.Ident:
			// The Sel of a field selection is judged with its selector.
			if len(stack) > 0 {
				if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == n && isField(info, sel) {
					return nil
				}
			}
			return []ast.Expr{n}
		}
		return nil
	}
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	case *ast.CallExpr:
		// delete(e.m, k) mutates the map field in place.
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
			targets = n.Args[:1]
		}
	}
	out := make([]ast.Expr, 0, len(targets))
	for _, e := range targets {
		out = append(out, stripIndex(e))
	}
	return out
}

// stripIndex strips index, dereference and parentheses off a write target:
// e.m[k] = v writes e.m.
func stripIndex(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

func isField(info *types.Info, sel *ast.SelectorExpr) bool {
	s := info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal
}

// location resolves an access to its object, the position to report and,
// for a field selection, the base expression the field is selected from.
func location(info *types.Info, e ast.Expr) (obj types.Object, pos token.Pos, base ast.Expr) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if isField(info, e) {
			return info.Selections[e].Obj(), e.Sel.Pos(), e.X
		}
	case *ast.Ident:
		return info.Uses[e], e.Pos(), nil
	}
	return nil, token.NoPos, nil
}

// baseObject names the local a field is selected from directly (x.f,
// (*x).f), or nil.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	if id, ok := stripIndex(e).(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// allowed reports whether node n (whose ancestors are stack) sits inside an
// argument of a call the rule sanctions.
func (r *Rule) allowed(info *types.Info, n ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		child := n
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		for _, arg := range call.Args {
			if arg == child && r.Allowed(info, call, arg) {
				return true
			}
		}
	}
	return false
}

// freshLocals finds the locals body binds to a value it constructs itself
// (&T{…}, T{…} or new(T)): unpublished, so their fields are the
// constructor's alone.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok || !isConstruction(rhs) {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				fresh[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

func isConstruction(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := x.X.(*ast.CompositeLit)
		return x.Op == token.AND && lit
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		return ok && id.Name == "new" && len(x.Args) == 1
	}
	return false
}
