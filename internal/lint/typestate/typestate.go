// Package typestate is a declarative protocol-state-machine analyzer
// family over the cfg/dataflow core. A protocol is written as a small
// spec table — ordered chain levels with the calls that establish,
// require and reset them; paired acquire/release resources, optionally
// ranked; terminal (kill/use-after) rules; and must-check-error rules —
// and NewAnalyzer compiles the table into an aelint analyzer that runs
// the machines per-path over every function body, with same-package
// interprocedural summaries.
//
// Two machines share the spec:
//
//   - The chain machine tracks an ordered establishment level per path
//     (e.g. start → attested → keyed). Events carry Require (minimum
//     level at the call site), Establish (level proven after the call),
//     Reset (back to level zero, position recorded for diagnostics) and
//     Max (occurrence budget per path, the transparent-retry guard).
//     Same-package callee summaries fold establishment optimistically —
//     a callee that can establish a level on some path counts as
//     capable of it — while Require violations are definite: they are
//     reported only when the path's level is known, never guessed.
//
//   - The pairing machine tracks per-object obligations keyed by the
//     root variable and selector path of the acquired value: pinned
//     frames, held latches, key material, reconnect-reset obligations.
//     It reports leaks on exit paths still holding an obligation, double
//     releases, and use-after-kill. A deferred release keeps the
//     obligation held for the rest of the body and discharges it at
//     exit. Ownership leaves the function when the object is returned,
//     stored into a field, element or package variable, sent, put in a
//     composite literal, address-taken or captured by a closure; an
//     argument to a call is a transfer too, unless the resource is a
//     Borrow resource, for which the caller keeps the obligation.
//     Same-package must-release summaries let a helper that releases its
//     parameter on every path discharge the caller's obligation.
//
// Ranked resources turn the pairing machine into a lock-order checker: a
// ranked resource is held at a merge only if held on every incoming path,
// and acquiring one — directly, or through a same-package callee whose
// transitive may-acquire set contains it — while a resource of no lower
// rank is held is a finding.
//
// The machines are deliberately conservative about identity: objects
// are named by (root *types.Object, selector path) chains, a plain
// `alias := obj` moves the obligation to the alias, and anything the
// chain cannot name is not tracked. That keeps the specs honest — every
// diagnostic points at a concrete call on a concrete path.
package typestate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
)

// Identity keys for Resource.AcquireKey / ReleaseKey: which value names
// the tracked object at an acquire or release site.
const (
	// IdentResult: the left-hand side the call's first value result is
	// assigned to (f, err := bp.Fetch(id) tracks f).
	IdentResult = -1
	// IdentRecv: the receiver (or the selector base, for Field-form
	// patterns) of the call (fr.Latch.Lock() tracks fr).
	IdentRecv = -2
	// IdentSingleton: one per-function obligation regardless of
	// operands (a protocol step that must be followed by another).
	IdentSingleton = -3
	// IdentSubject: the receiver of a method call, else the first
	// argument (x.Zeroize() and Zeroize(x) both name x).
	IdentSubject = -4
	// Non-negative values index call arguments (UnpinStream(id, ...)
	// with ReleaseKey 0 tracks the id argument).
)

// FieldPat matches a field assignment base.Field = value, where base's
// (dereferenced) named type is Recv in package Pkg. Value constrains
// the assigned expression: "" matches anything, "true"/"false"/"nil"
// match those literals exactly.
type FieldPat struct {
	Pkg   string
	Recv  string
	Field string
	Value string
}

// IdentPat matches any mention of the named package-level identifier.
type IdentPat struct {
	Pkg  string
	Name string
}

// Event is one chain transition.
type Event struct {
	Call      analysis.CallPat
	Require   int    // minimum level at the call site (0 = none)
	Establish int    // level guaranteed after the call (0 = none)
	Reset     bool   // drops the path back to level 0
	Max       int    // occurrence budget per path (0 = unlimited)
	Desc      string // short phrase naming the step, used in diagnostics
}

// Chain is the ordered-protocol half of a spec.
type Chain struct {
	// Levels names the establishment levels; index 0 is the implicit
	// initial level and needs no entry ("attested" at index 1 means
	// Establish: 1 proves it).
	Levels []string
	Events []Event
	// Roots lists functions analyzed with a definite initial level 0
	// ("Recv.Name" or "Name"); RootExported additionally treats every
	// exported function as a root. Non-root functions are analyzed
	// entry-dependent: only definite post-reset violations report.
	Roots        []string
	RootExported bool
}

// Resource is one acquire/release pairing.
type Resource struct {
	Name       string
	Acquire    []analysis.CallPat
	AcquireSet []FieldPat // field assignments that acquire (b.pinned = true)
	Release    []analysis.CallPat
	ReleaseSet []FieldPat
	ReleaseUse []IdentPat // identifier mentions that discharge (ErrIndeterminate)
	AcquireKey int
	ReleaseKey int
	// WaiveOnError waives the obligation on every error-return exit path,
	// not only while the acquire's own error result is unchecked (for
	// obligations an error return legitimately satisfies, and for values
	// the caller cannot reach once an error is returned).
	WaiveOnError bool
	// Borrow keeps the obligation with the caller when the object is
	// passed to a call: the callee borrows it, the caller still owes the
	// release (key material handed to a deriver must still be wiped).
	Borrow bool
	// EveryPath requires the release on every path into an exit: an exit
	// reached with the release done or deferred on only some incoming
	// paths is a leak too (key material zeroized in one branch only).
	EveryPath bool
	// Reentrant permits re-acquiring a held resource and suppresses
	// double-release reports (counted pins).
	Reentrant bool
	// Idempotent suppresses double-release reports only (Invalidate-
	// style releases that are safe to repeat).
	Idempotent bool
	// LeakNeedsLocalRelease reports leaks only in functions that also
	// contain a release of this resource — for protocols where a
	// different goroutine legitimately owns the release.
	LeakNeedsLocalRelease bool
	// RootIdentity collapses the selector path, keying the obligation
	// by the root object alone (c.tds and c.caches both name c).
	RootIdentity bool
	// Rank places the resource in a lock order (0 = unranked). A ranked
	// resource is held at a merge only if held on every incoming path,
	// and acquiring it while holding a ranked resource of rank no lower
	// is reported. A ranked resource without Release patterns is held
	// only for the duration of its acquiring call.
	Rank int
	// LeakMsg and DoubleMsg are the leak and double-release diagnostics;
	// an empty message turns that report off.
	LeakMsg   string
	DoubleMsg string
}

// Terminal is a kill/use-after rule: after Kill runs on an object, any
// Use call on the same object reports Msg.
type Terminal struct {
	Kill analysis.CallPat
	Use  []analysis.CallPat
	Msg  string
}

// MustCheck requires the error result of matching calls to be consumed:
// a call discarded as a statement, deferred bare, launched with go, or
// with `_` in the error-result position is a finding.
type MustCheck struct {
	Call analysis.CallPat
	Msg  string
}

// Spec is one protocol table.
type Spec struct {
	Name string
	Doc  string
	// Packages restricts the analyzer to repo packages with these short
	// names; empty means every package.
	Packages  []string
	Chain     *Chain
	Resources []Resource
	Terminals []Terminal
	MustCheck []MustCheck
}

// NewAnalyzer compiles a spec into an analyzer.
func NewAnalyzer(s *Spec) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:     s.Name,
		Doc:      s.Doc,
		Packages: s.Packages,
		Run:      func(pass *analysis.Pass) (any, error) { return run(s, pass) },
	}
}

// checker carries one spec's run over one package.
type checker struct {
	spec *Spec
	pass *analysis.Pass
	info *types.Info
	// seen deduplicates diagnostics across exit paths and fixpoint
	// revisits: the machines may observe the same violation from
	// several paths, the user needs it once.
	seen map[string]bool
	// chainSums and releaseSums are the same-package interprocedural
	// summaries, keyed by the function's Defs object.
	chainSums   map[*types.Func]*chainSummary
	releaseSums map[*types.Func]*releaseSummary
	// acquireSums are the transitive may-acquire sets of ranked
	// resources, by resource index; ranked marks those indexes.
	acquireSums map[*types.Func]map[int]bool
	ranked      []bool
	report      bool
	// maxSlot/maxCaps index the chain's budgeted (Max > 0) events into
	// count slots with their saturation caps.
	maxSlot map[int]int
	maxCaps []uint8
}

func run(s *Spec, pass *analysis.Pass) (any, error) {
	c := &checker{
		spec:        s,
		pass:        pass,
		info:        pass.TypesInfo,
		seen:        map[string]bool{},
		chainSums:   map[*types.Func]*chainSummary{},
		releaseSums: map[*types.Func]*releaseSummary{},
		acquireSums: map[*types.Func]map[int]bool{},
	}
	if s.Chain != nil {
		c.runChain()
	}
	if len(s.Resources) > 0 || len(s.Terminals) > 0 {
		c.runPairing()
	}
	for i := range s.MustCheck {
		c.runMustCheck(&s.MustCheck[i])
	}
	return nil, nil
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d·%s", pos, msg)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Reportf(pos, "%s", msg)
}

// funcDecls yields every function declaration with a body, paired with
// its Defs object.
func (c *checker) funcDecls(visit func(fd *ast.FuncDecl, obj *types.Func)) {
	c.pass.FuncDecls(func(fd *ast.FuncDecl) {
		if obj, _ := c.info.Defs[fd.Name].(*types.Func); obj != nil {
			visit(fd, obj)
		}
	})
}

// ---- pattern matching ----

// matchFieldSet reports whether the assignment position lhs = rhs
// matches pat, returning the selector base.
func (c *checker) matchFieldSet(pat *FieldPat, lhs, rhs ast.Expr) (base ast.Expr, ok bool) {
	sel, selOK := lhs.(*ast.SelectorExpr)
	if !selOK || sel.Sel.Name != pat.Field {
		return nil, false
	}
	if !analysis.NamedTypeIs(c.info, sel.X, pat.Pkg, pat.Recv) {
		return nil, false
	}
	if pat.Value != "" {
		id, idOK := rhs.(*ast.Ident)
		if !idOK || id.Name != pat.Value {
			return nil, false
		}
	}
	return sel.X, true
}

// matchIdent reports whether id mentions the package-level identifier.
func (c *checker) matchIdent(pat *IdentPat, id *ast.Ident) bool {
	if id.Name != pat.Name {
		return false
	}
	obj := c.info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return analysis.PackagePathIs(obj.Pkg(), pat.Pkg)
}

// chainOf names e as a (root object, selector path) pair: h.bp resolves
// to (h, ".bp"). Only plain idents and struct-field selections qualify;
// anything else (calls, indexing, map loads) is unnamed and untracked.
func chainOf(info *types.Info, e ast.Expr) (root types.Object, path string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil, "", false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return nil, "", false
		}
		return obj, "", true
	case *ast.ParenExpr:
		return chainOf(info, e.X)
	case *ast.StarExpr:
		return chainOf(info, e.X)
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			root, path, ok = chainOf(info, e.X)
			if !ok {
				return nil, "", false
			}
			return root, path + "." + e.Sel.Name, true
		}
		return nil, "", false
	}
	return nil, "", false
}

// ---- must-check rules ----

// runMustCheck walks every file for calls matching mc whose error
// result is discarded.
func (c *checker) runMustCheck(mc *MustCheck) {
	for _, file := range c.pass.Files {
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, matched := mc.Call.Match(c.info, call); !matched {
				return true
			}
			errIdx := analysis.ErrorResults(c.info, call)
			if len(errIdx) == 0 || len(stack) == 0 {
				return true
			}
			switch parent := stack[len(stack)-1].(type) {
			case *ast.ExprStmt:
				c.reportf(call.Pos(), "%s: error result of %s discarded", mc.Msg, mc.Call.Name)
			case *ast.GoStmt, *ast.DeferStmt:
				c.reportf(call.Pos(), "%s: error result of %s discarded (go/defer)", mc.Msg, mc.Call.Name)
			case *ast.AssignStmt:
				if len(parent.Rhs) != 1 || parent.Rhs[0] != call {
					return true
				}
				for _, i := range errIdx {
					if i < len(parent.Lhs) {
						if id, isID := parent.Lhs[i].(*ast.Ident); isID && id.Name == "_" {
							c.reportf(call.Pos(), "%s: error result of %s assigned to _", mc.Msg, mc.Call.Name)
						}
					}
				}
			}
			return true
		})
	}
}
