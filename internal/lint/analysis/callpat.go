package analysis

import (
	"go/ast"
	"go/types"
)

// CallPat matches a call site. With Field empty the callee is resolved
// through the type checker: package short name, receiver type name
// (empty for plain functions) and function name; "*" in any of the three
// matches anything (Recv "*" matches methods and plain functions). With
// Field set the pattern is the syntactic base.Field.Name() form — used
// for methods of an embedded or struct-field value such as
// fr.Latch.Lock(), where Recv names the type of base, not of the field. A
// pattern with neither Recv nor Field also matches a call through a
// func-typed variable of that name declared in the package — a callback
// parameter such as the once of retry(once func() ...), which has no
// declared callee to resolve.
type CallPat struct {
	Pkg   string
	Recv  string
	Field string
	Name  string
}

// Match reports whether call matches p, returning the receiver /
// selector-base expression when the callee is a method (nil for plain
// functions).
func (p *CallPat) Match(info *types.Info, call *ast.CallExpr) (base ast.Expr, ok bool) {
	if p.Field != "" {
		sel, selOK := call.Fun.(*ast.SelectorExpr)
		if !selOK || sel.Sel.Name != p.Name {
			return nil, false
		}
		inner, innerOK := sel.X.(*ast.SelectorExpr)
		if !innerOK || inner.Sel.Name != p.Field {
			return nil, false
		}
		if !NamedTypeIs(info, inner.X, p.Pkg, p.Recv) {
			return nil, false
		}
		return inner.X, true
	}
	fn := CalleeFunc(info, call)
	if fn == nil {
		id, isIdent := call.Fun.(*ast.Ident)
		if !isIdent || p.Recv != "" || id.Name != p.Name {
			return nil, false
		}
		v, isVar := info.Uses[id].(*types.Var)
		return nil, isVar && PackagePathIs(v.Pkg(), p.Pkg)
	}
	recv := RecvTypeName(fn)
	if !matches(p.Name, fn.Name()) || !matches(p.Recv, recv) ||
		(p.Pkg != "*" && !PackagePathIs(fn.Pkg(), p.Pkg)) {
		return nil, false
	}
	if sel, selOK := call.Fun.(*ast.SelectorExpr); selOK && recv != "" {
		return sel.X, true
	}
	return nil, true
}

func matches(pat, name string) bool { return pat == "*" || pat == name }

// NamedTypeIs reports whether e's (dereferenced) named type is the given
// type in the given repo package.
func NamedTypeIs(info *types.Info, e ast.Expr, pkgShort, typeName string) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return false
	}
	return PackagePathIs(named.Obj().Pkg(), pkgShort)
}

// CalleeFunc resolves the called function/method object, if any.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// RecvTypeName returns the name of a method's receiver type, dereferenced.
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
