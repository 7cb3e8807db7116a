// Package callgraph builds per-function taint summaries over the static
// call graph of the loaded module, making the taint-based analyzers
// interprocedural. For every function declaration it runs the shared taint
// engine with parameters seeded as labels and records:
//
//   - Results: which parameters (and which source kinds) flow into each
//     result value, and
//   - Sinks: which parameters reach a formatting, observability or
//     variable-time comparison sink inside the body — including
//     transitively, folded through already-summarized callees.
//
// Analyzers consult summaries through the taint.Oracle interface: at a call
// site, a callee summary replaces the conservative "all arguments taint all
// results" default with the callee's proven flows, and sink hits let the
// caller report "argument reaches fmt.Errorf inside callee" without seeing
// the callee's body again.
//
// Summaries are keyed by (package path, receiver, name) strings rather than
// *types.Func identity: the same function is represented by different
// objects when seen from source (its own package) and from export data (a
// dependency), but the string key is stable across both views. Registries
// are scoped per token.FileSet — one per load session — so test fixtures
// with colliding package names ("enclave") never cross-contaminate.
//
// Packages must be registered in dependency order (importees first), which
// analysis.Load guarantees and the analysistest fixture loader does by
// registering each fixture after its imports finish loading.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/taint"
)

// Registry holds the summaries of one load session.
type Registry struct {
	mu    sync.Mutex
	funcs map[string]*taint.FuncInfo
}

var (
	regMu      sync.Mutex
	registries = map[*token.FileSet]*Registry{}
)

func registryFor(fset *token.FileSet) *Registry {
	regMu.Lock()
	defer regMu.Unlock()
	r, ok := registries[fset]
	if !ok {
		r = &Registry{funcs: map[string]*taint.FuncInfo{}}
		registries[fset] = r
	}
	return r
}

// Summary implements taint.Oracle.
func (r *Registry) Summary(fn *types.Func) *taint.FuncInfo {
	if fn == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.funcs[funcKey(fn)]
}

// funcKey builds the stable cross-view identity of a function.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + "·" + analysis.RecvTypeName(fn) + "·" + fn.Name()
}

// For returns the Oracle for the load session that produced pass, or nil if
// no packages were registered for it.
func For(pass *analysis.Pass) taint.Oracle {
	regMu.Lock()
	r, ok := registries[pass.Fset]
	regMu.Unlock()
	if !ok {
		return nil
	}
	return r
}

// RegisterPackages summarizes every function of every package, in the given
// order (must be dependency order: importees first).
func RegisterPackages(pkgs []*analysis.Package) {
	for _, p := range pkgs {
		RegisterPackage(p)
	}
}

// RegisterPackage summarizes every function declaration in pkg. Summaries
// within the package are computed twice: the first pass treats not-yet-seen
// same-package callees conservatively, the second folds the first pass's
// summaries in, which settles the common helper-then-caller layouts.
// (Summaries only refine toward fewer labels; two passes trade the last bit
// of fixpoint precision for determinism.)
func RegisterPackage(pkg *analysis.Package) {
	reg := registryFor(pkg.Fset)
	for pass := 0; pass < 2; pass++ {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				info := summarize(reg, pkg, fd, obj)
				reg.mu.Lock()
				reg.funcs[funcKey(obj)] = info
				reg.mu.Unlock()
			}
		}
	}
}

// combinedSources recognizes every source any analyzer policy cares about,
// so one summary set serves all of them; the label bits keep the kinds
// distinguishable.
func combinedSources(pass *analysis.Pass) func(*ast.CallExpr) taint.Labels {
	enclave := taint.EnclaveSources(pass)
	secret := taint.SecretSources(pass)
	return func(call *ast.CallExpr) taint.Labels {
		return enclave(call) | secret(call)
	}
}

// summarize computes one function's summary.
func summarize(reg *Registry, pkg *analysis.Package, fd *ast.FuncDecl, obj *types.Func) *taint.FuncInfo {
	pass := &analysis.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(analysis.Diagnostic) {},
	}
	chk := taint.NewChecker(taint.Config{
		Pass:    pass,
		Sources: combinedSources(pass),
		Oracle:  reg,
	})

	// Seed receiver and parameters with their label bits.
	sig := obj.Type().(*types.Signature)
	idx := 0
	if sig.Recv() != nil {
		chk.SeedParam(sig.Recv(), idx)
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		chk.SeedParam(sig.Params().At(i), idx)
		idx++
	}
	info := &taint.FuncInfo{}

	chk.Analyze(fd.Body)

	info.Results = resultLabels(pkg, fd, chk)
	info.Sinks = sinkHits(reg, pkg, fd, chk)
	return info
}

// resultLabels joins the labels of each result expression over every
// top-level return statement (closure returns belong to the closure).
func resultLabels(pkg *analysis.Package, fd *ast.FuncDecl, chk *taint.Checker) []taint.Labels {
	if fd.Type.Results == nil {
		return nil
	}
	var resultObjs []types.Object
	n := 0
	for _, f := range fd.Type.Results.List {
		if len(f.Names) == 0 {
			n++
			resultObjs = append(resultObjs, nil)
			continue
		}
		for _, name := range f.Names {
			n++
			resultObjs = append(resultObjs, pkg.Info.Defs[name])
		}
	}
	labels := make([]taint.Labels, n)
	taint.WalkNoFuncLit(fd.Body, func(node ast.Node) {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return
		}
		switch {
		case len(ret.Results) == n:
			for i, e := range ret.Results {
				labels[i] |= chk.LabelsAt(e)
			}
		case len(ret.Results) == 1 && n > 1:
			// return f() forwarding multiple results: the single expression's
			// label union applies to every result.
			l := chk.LabelsAt(ret.Results[0])
			for i := range labels {
				labels[i] |= l
			}
		case len(ret.Results) == 0:
			// Naked return: read the named result objects from the state at
			// the return statement.
			st := chk.StateAt(ret)
			if st == nil {
				return
			}
			for i, obj := range resultObjs {
				if obj != nil {
					labels[i] |= st[taint.Cell{Obj: obj}]
				}
			}
		}
	})
	return labels
}

// sinkHits collects the sinks inside fd whose inputs carry parameter labels,
// both direct (format/obs/compare nodes in the body, closures included) and
// transitive (folded through callee summaries).
func sinkHits(reg *Registry, pkg *analysis.Package, fd *ast.FuncDecl, chk *taint.Checker) []taint.SinkHit {
	type hitKey struct {
		kind, desc string
		params     taint.Labels
	}
	seen := map[hitKey]bool{}
	var hits []taint.SinkHit
	record := func(kind, desc string, labels taint.Labels) {
		p := labels.Params()
		if p == 0 {
			// Fed only by locals/sources: a finding inside fd itself, which
			// the direct analyzer pass reports; callers can't influence it.
			return
		}
		k := hitKey{kind, desc, p}
		if seen[k] {
			return
		}
		seen[k] = true
		hits = append(hits, taint.SinkHit{Params: p, Kind: kind, Desc: desc})
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if desc, operands := taint.CompareSink(pkg.Info, node); desc != "" {
			var l taint.Labels
			for _, op := range operands {
				l |= chk.LabelsAt(op)
			}
			record("compare", desc, l)
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, desc := taint.CallSink(pkg.Info, call); kind != "" {
			for _, a := range call.Args {
				record(kind, desc, chk.LabelsAt(a))
			}
		}
		// Transitive: fold callee sink hits through this call's arguments.
		if fn := analysis.CalleeFunc(pkg.Info, call); fn != nil {
			if sum := reg.Summary(fn); sum != nil {
				if st := chk.StateAt(call); st != nil {
					args := chk.ArgLabels(st, call, fn)
					for _, h := range sum.Sinks {
						record(h.Kind, h.Desc, taint.ExpandLabels(h.Params, args))
					}
				}
			}
		}
		return true
	})
	return hits
}

// CallSiteHits evaluates a call against its callee's summary under the
// caller's converged taint state, returning the sinks of the given kind
// that this call's arguments actually reach. Analyzers use it to report
// interprocedural findings at the call site.
func CallSiteHits(chk *taint.Checker, info *types.Info, call *ast.CallExpr, oracle taint.Oracle, kind string) []taint.SinkHit {
	if oracle == nil {
		return nil
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	sum := oracle.Summary(fn)
	if sum == nil {
		return nil
	}
	st := chk.StateAt(call)
	if st == nil {
		return nil
	}
	args := chk.ArgLabels(st, call, fn)
	var out []taint.SinkHit
	seen := map[string]bool{}
	for _, h := range sum.Sinks {
		if h.Kind != kind {
			continue
		}
		reached := taint.ExpandLabels(h.Params, args)
		if reached == 0 {
			continue
		}
		if seen[h.Desc] {
			continue
		}
		seen[h.Desc] = true
		out = append(out, taint.SinkHit{Params: reached, Kind: h.Kind, Desc: h.Desc})
	}
	return out
}
