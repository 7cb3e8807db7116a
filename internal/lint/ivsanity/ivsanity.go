// Package ivsanity checks the provenance of CBC initialization vectors at
// every cipher.NewCBCEncrypter call and every SetIV that re-IVs a block
// mode for its next encryption: the IV must be freshly drawn from
// crypto/rand (randomized encryption) or derived deterministically from the
// plaintext via a keyed HMAC (deterministic encryption, §2.3) — and each IV
// may feed at most one encryption. Constant IVs, caller-supplied IVs of
// unknowable origin, and IV reuse all break IND-CPA for CBC.
//
// The pass runs a small provenance lattice forward over the function CFG:
//
//	make([]byte, n)                      -> unknown (allocated, unfilled)
//	rand.Read(iv), io.ReadFull(rand.Reader, iv) -> random
//	hmac.New(...)                        -> keyed-hash object
//	f(...) returning a type with a keyedHash() marker method -> keyed-hash object
//	h.Sum(...) of a keyed-hash object    -> derived
//	copy(iv, derived/random)             -> inherits the source state
//	NewCBCEncrypter(block, iv), m.SetIV(iv) -> used (a second use is reuse)
//
// At a merge, random on one path and derived on the other is fine
// (either); anything joined with unknown stays unknown. Provenance must be
// locally provable: an IV arriving as a parameter is flagged — hoist the IV
// generation into the function that encrypts (see aecrypto.Encrypt).
package ivsanity

import (
	"go/ast"
	"go/types"
	"maps"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/cfg"
	"alwaysencrypted/internal/lint/dataflow"
)

// Analyzer is the ivsanity pass.
var Analyzer = &analysis.Analyzer{
	Name: "ivsanity",
	Doc:  "CBC IVs must come from crypto/rand or deterministic HMAC derivation, and never be reused",
	Run:  run,
}

type ivState uint8

const (
	ivNone    ivState = iota // untracked
	ivUnknown                // allocated or of unprovable origin
	ivRandom
	ivDerived
	ivEither // random on one path, derived on another
	ivUsed   // already consumed by an encrypter
	ivHMAC   // a keyed-hash object (its Sum is a derived IV)
)

func joinState(a, b ivState) ivState {
	switch {
	case a == b:
		return a
	case a == ivNone:
		return b
	case b == ivNone:
		return a
	case a == ivUsed || b == ivUsed:
		return ivUsed
	case a == ivHMAC || b == ivHMAC:
		return ivUnknown
	case a == ivUnknown || b == ivUnknown:
		return ivUnknown
	default: // both in {random, derived, either}
		return ivEither
	}
}

type fact map[types.Object]ivState

type lattice struct{}

func (lattice) Bottom() fact { return fact{} }

func (lattice) Clone(f fact) fact { return maps.Clone(f) }

func (lattice) Join(dst, src fact) (fact, bool) {
	changed := false
	for k, v := range src {
		if j := joinState(dst[k], v); j != dst[k] {
			dst[k] = j
			changed = true
		}
	}
	return dst, changed
}

type checker struct {
	pass *analysis.Pass
}

// run checks every function body, and every function literal as a function
// of its own.
func run(pass *analysis.Pass) (any, error) {
	pass.FuncBodies(func(body *ast.BlockStmt) { checkBody(pass, body) })
	return nil, nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass}
	g := cfg.New(body)
	res := dataflow.Forward[fact](g, lattice{}, func(f fact, n ast.Node) fact {
		c.apply(f, n, false)
		return f
	})
	res.Replay(func(f fact, n ast.Node) {
		// apply mutates f exactly as the transfer Replay runs afterwards
		// will (idempotent map updates); reporting sees mid-node state.
		c.apply(f, n, true)
	})
}

// apply is both the transfer function (report=false) and the replay
// reporter (report=true).
func (c *checker) apply(f fact, n ast.Node, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.scanCalls(f, n, report)
		c.bind(f, n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, id := range vs.Names {
					lhs[i] = id
				}
				c.scanCalls(f, n, report)
				c.bind(f, lhs, vs.Values)
			}
		}
	case *ast.RangeStmt:
		c.scanCalls(f, n.X, report)
	case *ast.TypeSwitchStmt:
		c.scanCalls(f, n.Assign, report)
	case *ast.FuncLit:
		// Bodies are checked independently by checkBody.
	default:
		c.scanCalls(f, n, report)
	}
}

// bind tracks IV-relevant bindings: allocation, keyed-hash construction,
// Sum results, aliasing.
func (c *checker) bind(f fact, lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		var r ast.Expr
		if len(rhs) == 1 && len(lhs) > 1 {
			// Multi-value call: only the first result is the candidate
			// (rand.Read's n, err carry no provenance).
			if i > 0 {
				delete(f, obj)
				continue
			}
			r = rhs[0]
		} else if i < len(rhs) {
			r = rhs[i]
		}
		if st := c.exprState(f, r); st != ivNone {
			f[obj] = st
		} else {
			delete(f, obj)
		}
	}
}

// exprState classifies the provenance an expression would give a binding.
func (c *checker) exprState(f fact, e ast.Expr) ivState {
	switch e := e.(type) {
	case nil:
		return ivNone
	case *ast.Ident:
		if obj := c.pass.TypesInfo.ObjectOf(e); obj != nil {
			return f[obj]
		}
	case *ast.SliceExpr:
		return c.exprState(f, e.X)
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(c.pass.TypesInfo, e)
		if fn != nil && (fn.Pkg() != nil && fn.Pkg().Path() == "crypto/hmac" && fn.Name() == "New" || returnsKeyedHash(fn)) {
			return ivHMAC
		}
		if fn != nil && fn.Name() == "Sum" {
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if c.exprState(f, sel.X) == ivHMAC {
					return ivDerived
				}
			}
		}
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Type != nil {
				if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
					return ivUnknown
				}
			}
		}
	}
	return ivNone
}

// returnsKeyedHash reports whether fn's first result is a keyed hash other
// than hmac.New's: a type with the marker method keyedHash, as aecrypto's
// HMAC resumed from a scheduled key has.
func returnsKeyedHash(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	t := sig.Results().At(0).Type()
	if _, isPtr := t.(*types.Pointer); !isPtr {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "keyedHash" {
			return true
		}
	}
	return false
}

// scanCalls walks n for provenance-changing calls and encrypter uses.
func (c *checker) scanCalls(f fact, n ast.Node, report bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.handleCall(f, call, report)
		return true
	})
}

func (c *checker) handleCall(f fact, call *ast.CallExpr, report bool) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "crypto/rand" && fn.Name() == "Read" && len(call.Args) == 1:
			c.setBase(f, call.Args[0], ivRandom)
			return
		case fn.Pkg().Path() == "io" && fn.Name() == "ReadFull" && len(call.Args) == 2:
			if c.isCryptoRandReader(call.Args[0]) {
				c.setBase(f, call.Args[1], ivRandom)
			}
			return
		case fn.Pkg().Path() == "crypto/cipher" && fn.Name() == "NewCBCEncrypter" && len(call.Args) == 2:
			c.useIV(f, call, call.Args[1], report)
			return
		case fn.Name() == "SetIV" && len(call.Args) == 1:
			c.useIV(f, call, call.Args[0], report)
			return
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		switch st := c.exprState(f, call.Args[1]); st {
		case ivRandom, ivDerived, ivEither:
			c.setBase(f, call.Args[0], st)
		}
	}
}

// useIV reports on and consumes the IV argument of a CBC encrypter or SetIV.
func (c *checker) useIV(f fact, call *ast.CallExpr, ivArg ast.Expr, report bool) {
	obj := c.baseObj(ivArg)
	st := c.exprState(f, ivArg)
	if report {
		switch st {
		case ivRandom, ivDerived, ivEither:
			// sound provenance
		case ivUsed:
			c.pass.Reportf(call.Pos(),
				"CBC IV is reused for a second encryption: every CBC encryption needs a fresh random or message-bound IV")
		default:
			c.pass.Reportf(call.Pos(),
				"CBC IV provenance is not locally provable: derive it from crypto/rand or a deterministic HMAC in the function that encrypts")
		}
	}
	if obj != nil {
		f[obj] = ivUsed
	}
}

// setBase sets the state of the object underlying e (through slicing).
func (c *checker) setBase(f fact, e ast.Expr, st ivState) {
	if obj := c.baseObj(e); obj != nil {
		f[obj] = st
	}
}

func (c *checker) baseObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return c.pass.TypesInfo.ObjectOf(x)
		default:
			return nil
		}
	}
}

func (c *checker) isCryptoRandReader(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Reader" {
		return false
	}
	obj := c.pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand"
}
