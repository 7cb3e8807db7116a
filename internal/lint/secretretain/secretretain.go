// Package secretretain audits the lifetime half of the key-hygiene
// contract: any long-lived container — a map, slice or array field holding
// secret-typed values, or a sync.Pool recycling secret-bearing objects —
// must have a Zeroize-on-evict path, so that RestartEnclave, ALTER …
// ENCRYPTED re-encryption and process teardown can actually retire key
// material instead of leaving it to the garbage collector's schedule (§4.1
// driver caches, §4.4 enclave CEK cache; "Pushing the Limits of Encrypted
// Databases with Secure Hardware" makes exactly these enclave-resident
// decrypted structures the attack surface). It is the complement of
// secretescape's ownership-transfer rule: escape analysis deliberately lets
// a frame file a secret into an aggregate it builds, and THIS pass holds
// the aggregate to account.
//
// A type is secret-bearing when it declares the disposal protocol (a
// Zeroize method, like aecrypto.CellKey), is raw asymmetric key material
// (rsa.PrivateKey, which cannot declare one), or structurally contains
// either (struct fields, container elements; bounded depth). For each named
// struct type in the audited packages:
//
//   - a map/slice/array field with secret-bearing elements is clean only if
//     some method of the type ranges over that field and calls a zeroize
//     routine (name "Zeroize" or prefixed "zeroize…") on what it visits;
//   - a sync.Pool field whose New — resolved from `x.field.New = func…`
//     assignments and composite literals in the package — returns a
//     secret-bearing type is ALWAYS a finding: a pool's contents are
//     unenumerable and its eviction nondeterministic, so no zeroize-on-evict
//     path can exist. Pools may recycle secret-holding objects only when
//     those objects hold borrowed aliases whose owner zeroizes them, and
//     that argument must be recorded in a reason= waiver at the field.
//
// The pass runs over enclave, exprsvc, keys, driver and engine — everywhere
// a decrypted key or evaluator can be parked for longer than a frame.
package secretretain

import (
	"go/ast"
	"go/types"
	"strings"

	"alwaysencrypted/internal/lint/analysis"
)

// Analyzer is the secretretain pass.
var Analyzer = &analysis.Analyzer{
	Name:     "secretretain",
	Doc:      "long-lived containers of secret-typed values must have a Zeroize-on-evict path",
	Packages: []string{"enclave", "exprsvc", "keys", "driver", "engine"},
	Run:      run,
}

const maxDepth = 4

func run(pass *analysis.Pass) (any, error) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		checkStruct(pass, named, st)
	}
	return nil, nil
}

func checkStruct(pass *analysis.Pass, named *types.Named, st *types.Struct) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		ft := f.Type()
		if isSyncPool(ft) {
			checkPoolField(pass, named, f)
			continue
		}
		elem, ok := containerElem(ft)
		if !ok || !secretBearing(elem, maxDepth) {
			continue
		}
		if hasZeroizeEvict(pass, named, f) {
			continue
		}
		pass.Reportf(f.Pos(),
			"%s.%s holds secret-bearing %s values with no Zeroize-on-evict path: add a method that ranges over the field and zeroizes entries, or waive with the owner that does (§4.1)",
			named.Obj().Name(), f.Name(), elem.String())
	}
}

// containerElem returns the element type of a long-lived container shape.
func containerElem(t types.Type) (types.Type, bool) {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return u.Elem(), true
	case *types.Slice:
		return u.Elem(), true
	case *types.Array:
		return u.Elem(), true
	}
	return nil, false
}

// secretBearing reports whether t holds key material: it declares Zeroize,
// is RSA private-key material, or structurally contains either.
func secretBearing(t types.Type, depth int) bool {
	if depth == 0 {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rsa" && obj.Name() == "PrivateKey" {
			return true
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "Zeroize" {
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if secretBearing(u.Field(i).Type(), depth-1) {
				return true
			}
		}
	case *types.Map:
		return secretBearing(u.Elem(), depth-1)
	case *types.Slice:
		return secretBearing(u.Elem(), depth-1)
	case *types.Array:
		return secretBearing(u.Elem(), depth-1)
	}
	return false
}

func isSyncPool(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// hasZeroizeEvict reports whether some method of named ranges over field f
// calling a zeroize routine on what it visits.
func hasZeroizeEvict(pass *analysis.Pass, named *types.Named, f *types.Var) bool {
	found := false
	pass.FuncDecls(func(fn *ast.FuncDecl) {
		if fn.Recv == nil || found {
			return
		}
		// Match by underlying struct identity, not named-type identity:
		// a conversion view (`type enclaveKeyRing Enclave`) shares its
		// base type's field declarations, and the zeroize contract
		// attaches to the data layout, not the view through it.
		recv := receiverType(pass, fn)
		if recv == nil || recv.Underlying() != named.Underlying() {
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || found {
				return true
			}
			if !selectsField(pass, rng.X, f) {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if ok && zeroizeName(call) {
					found = true
				}
				return !found
			})
			return !found
		})
	})
	return found
}

func receiverType(pass *analysis.Pass, fn *ast.FuncDecl) *types.Named {
	if len(fn.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.Types[fn.Recv.List[0].Type].Type
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func selectsField(pass *analysis.Pass, e ast.Expr, f *types.Var) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := pass.TypesInfo.Selections[sel]
	return s != nil && s.Obj() == f
}

// zeroizeName matches the repo's hygiene protocol by name: Zeroize methods
// and functions, and package-local zeroize… helpers (zeroizeRSA).
func zeroizeName(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return name == "Zeroize" || strings.HasPrefix(name, "zeroize")
}

// checkPoolField flags sync.Pool fields recycling secret-bearing objects.
func checkPoolField(pass *analysis.Pass, named *types.Named, f *types.Var) {
	ret := poolNewReturnType(pass, f)
	if ret == nil || !secretBearing(ret, maxDepth) {
		return
	}
	pass.Reportf(f.Pos(),
		"%s.%s is a sync.Pool recycling secret-bearing %s: pool contents are unenumerable, so no Zeroize-on-evict path can exist — hold only aliases whose owner zeroizes them, and record that owner in a reason= waiver (§4.4)",
		named.Obj().Name(), f.Name(), ret.String())
}

// poolNewReturnType resolves the pool's New function from `x.f.New = func…`
// assignments and sync.Pool{New: func…} composite values for field f, and
// returns the first non-error type its returns produce.
func poolNewReturnType(pass *analysis.Pass, f *types.Var) types.Type {
	var newFn *ast.FuncLit
	for _, file := range pass.Files {
		if newFn != nil {
			break
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if newFn != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				// x.f.New = func() any { … }
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "New" || i >= len(n.Rhs) {
						continue
					}
					inner, ok := sel.X.(*ast.SelectorExpr)
					if !ok || !selectsField(pass, inner, f) {
						continue
					}
					if lit, ok := n.Rhs[i].(*ast.FuncLit); ok {
						newFn = lit
						return false
					}
				}
			case *ast.KeyValueExpr:
				// T{f: sync.Pool{New: func…}} — match the field key, then
				// the New key inside the pool literal.
				key, ok := n.Key.(*ast.Ident)
				if !ok || pass.TypesInfo.Uses[key] != types.Object(f) {
					return true
				}
				pool, ok := n.Value.(*ast.CompositeLit)
				if !ok {
					return true
				}
				for _, elt := range pool.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "New" {
						if lit, ok := kv.Value.(*ast.FuncLit); ok {
							newFn = lit
							return false
						}
					}
				}
			}
			return true
		})
	}
	if newFn == nil {
		return nil
	}
	var ret types.Type
	ast.Inspect(newFn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.ReturnStmt)
		if !ok || ret != nil {
			return ret == nil
		}
		for _, r := range rs.Results {
			t := pass.TypesInfo.Types[r].Type
			if t == nil || analysis.IsError(t) {
				continue
			}
			ret = t
			return false
		}
		return true
	})
	return ret
}
