// Package secretescape proves, per function, that decrypted plaintext, CEKs
// and session keys never leave the enclave trust domain through an
// unstructured door: a package-level variable, a goroutine spawn, a channel
// the frame does not own, or a callback handed to code outside
// internal/enclave / internal/aecrypto (§3, §4.6: key material and
// plaintext exist only inside the protected region; every exit must be a
// declared, sealed channel). It is the precondition audit for an
// enclave-resident decrypted-key cache: every way a key can slip out must
// be mechanically enumerable first.
//
// It is a policy over the taint engine: each call to a Root row of the
// trust vocabulary labels its results with a bit of its own, under the
// engine's ownership-transfer reading of aggregates, and the four doors are
// the sinks. Returns and stores into caller-owned aggregates are not —
// result slots are how values legally move, and aggregate lifetime is
// secretretain's contract — nor are plain call arguments and deferred
// calls, which are borrows that end before the frame does.
package secretescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/taint"
	"alwaysencrypted/internal/lint/trust"
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

// The doors, as diagnostics.
const (
	toGlobal    = "secret from %s escapes to a package-level variable: globals outlive every frame and are invisible to zeroization (§3)"
	toGoroutine = "secret from %s escapes into a spawned goroutine: the spawn outlives the frame, so the secret's lifetime is no longer auditable here (§4.6)"
	toChannel   = "secret from %s is sent on a channel this frame does not own: whoever drains it now holds key material outside this frame's control (§4.6)"
	toCallback  = "secret from %s is captured by a callback handed to %s, outside the enclave trust domain (§3)"
)

// frame is the policy over one function: one label bit per source call.
type frame struct {
	pass  *analysis.Pass
	c     *taint.Checker
	roots map[*ast.CallExpr]taint.Labels
	names []string // display name of each root, by bit
}

func run(pass *analysis.Pass) (any, error) {
	pass.FuncDecls(func(fd *ast.FuncDecl) {
		f := &frame{pass: pass, roots: map[*ast.CallExpr]taint.Labels{}}
		f.c = taint.NewChecker(taint.Config{Pass: pass, Sources: f.source, Ownership: true})
		f.c.Analyze(fd.Body)
		var spawned *ast.CallExpr
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false
			case *ast.GoStmt:
				spawned = n.Call
				labels := f.valueOrCapture(n, n.Call.Fun)
				for _, arg := range n.Call.Args {
					labels |= f.valueOrCapture(n, arg)
				}
				f.report(labels, n.Pos(), toGoroutine)
			case *ast.SendStmt:
				if !f.c.Local(f.c.Base(n.Chan)) {
					f.report(f.c.LabelsAt(n.Value), n.Pos(), toChannel)
				}
			case *ast.AssignStmt:
				f.assign(n)
			case *ast.CallExpr:
				if n != spawned {
					f.callback(n)
				}
			}
			return true
		})
	})
	return nil, nil
}

// source births a root at each call to a Root row, keyed by call node so
// the bit is stable across fixpoint iterations; roots past the label space
// share the last bit.
func (f *frame) source(call *ast.CallExpr) taint.Labels {
	if l, ok := f.roots[call]; ok {
		return l
	}
	api := trust.Call(f.pass.TypesInfo, call)
	if api.Roles&trust.Root == 0 {
		return 0
	}
	l := taint.ParamLabel(len(f.names))
	if len(f.names) < taint.MaxParams {
		f.names = append(f.names, api.Display())
	}
	f.roots[call] = l
	return l
}

// report reports each root in labels leaving through door at pos.
func (f *frame) report(labels taint.Labels, pos token.Pos, door string, args ...any) {
	for i, name := range f.names {
		if labels&taint.ParamLabel(i) != 0 {
			f.pass.Reportf(pos, door, append([]any{name}, args...)...)
		}
	}
}

// valueOrCapture is what e hands a call: a literal's captures, or e's own
// labels (a method value carries its receiver's).
func (f *frame) valueOrCapture(at ast.Node, e ast.Expr) taint.Labels {
	if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		return f.c.CapturedAt(at, lit)
	}
	return f.c.LabelsAt(e)
}

// assign reports roots stored into, or through, a package-level variable.
func (f *frame) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		rhs := n.Rhs[0]
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if analysis.IsError(f.pass.TypesInfo.TypeOf(lhs)) {
			continue
		}
		if v, ok := f.c.Base(lhs).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			f.report(f.c.LabelsAt(rhs), ast.Unparen(lhs).Pos(), toGlobal)
		}
	}
}

// callback reports roots captured by func-valued arguments of a call
// outside the trust domain: the callback may run at any later time.
func (f *frame) callback(call *ast.CallExpr) {
	fn := analysis.CalleeFunc(f.pass.TypesInfo, call)
	callee := "an unresolved function value"
	if fn != nil {
		for _, p := range calleeTrusted {
			if analysis.PackagePathIs(fn.Pkg(), p) {
				return
			}
		}
		callee = fn.FullName()
	}
	var labels taint.Labels
	for _, arg := range call.Args {
		if t := f.pass.TypesInfo.TypeOf(arg); t != nil {
			if _, isFunc := t.Underlying().(*types.Signature); isFunc {
				labels |= f.valueOrCapture(call, arg)
			}
		}
	}
	f.report(labels, call.Pos(), toCallback, callee)
}
