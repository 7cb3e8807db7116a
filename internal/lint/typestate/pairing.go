package typestate

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/cfg"
	"alwaysencrypted/internal/lint/dataflow"
	"alwaysencrypted/internal/lint/taint"
)

// pairKey names one tracked obligation: the (root object, selector
// path) chain of the acquired value plus the resource index. Terminals
// use negative res indices (-(terminal index + 1)); singletons use a
// nil root.
type pairKey struct {
	root types.Object
	path string
	res  int
}

// Pairing phases. pending is an acquire whose error result has not
// been checked yet (an error-return exit while pending is exempt from
// the leak report); any later use of the object promotes it to held.
// deferred is an obligation whose release a defer statement registered:
// still held for the rest of the body, discharged at exit. maybe is the
// merge of a released path with a holding one — not a definite double
// release, and a leak at exit only for an EveryPath resource.
const (
	phasePending int8 = iota + 1
	phaseHeld
	phaseDeferred
	phaseReleased
	phaseMaybe
	phaseKilled
)

type pairState struct {
	phase int8
	pos   token.Pos // acquire position (kill position for terminals)
}

// holding reports whether the obligation is still held at this point.
func (s pairState) holding() bool {
	return s.phase == phasePending || s.phase == phaseHeld || s.phase == phaseDeferred
}

type pairFact map[pairKey]pairState

// pairLat is a may-join lattice over obligation maps: an obligation
// acquired on one incoming path is still an obligation after the
// merge, and released+holding merges to maybe. Ranked resources join
// must-style instead: absent on a path counts as released there, so a
// lock is held after a merge only if every incoming path holds it.
type pairLat struct {
	seed   pairFact
	ranked []bool
}

func (l pairLat) Bottom() pairFact {
	return l.Clone(l.seed)
}

func (l pairLat) Clone(f pairFact) pairFact {
	cp := make(pairFact, len(f))
	for k, v := range f {
		cp[k] = v
	}
	return cp
}

func (l pairLat) must(k pairKey) bool {
	return k.res >= 0 && k.res < len(l.ranked) && l.ranked[k.res]
}

func (l pairLat) Join(dst, src pairFact) (pairFact, bool) {
	changed := false
	released := pairState{phase: phaseReleased}
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok && !l.must(k) {
			dst[k] = sv
			changed = true
			continue
		}
		if !ok {
			dv = released
		}
		if nv := joinState(dv, sv); nv != dv || !ok {
			dst[k] = nv
			changed = true
		}
	}
	for k, dv := range dst {
		if _, ok := src[k]; !ok && l.must(k) {
			if nv := joinState(dv, released); nv != dv {
				dst[k] = nv
				changed = true
			}
		}
	}
	return dst, changed
}

func joinState(a, b pairState) pairState {
	pos := a.pos
	if pos == 0 || (b.pos != 0 && b.pos < pos) {
		pos = b.pos
	}
	return pairState{phase: joinPhase(a.phase, b.phase), pos: pos}
}

func joinPhase(a, b int8) int8 {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case b == phaseKilled:
		return phaseKilled
	case a == phasePending && b == phaseHeld:
		return phaseHeld
	case a == phaseDeferred && b == phaseReleased:
		return phaseReleased
	}
	// Held on one path, released (now or at exit) on the other.
	return phaseMaybe
}

// relKey is one entry of a must-release summary: parameter slot
// (slotRecv for the receiver) × resource.
type relKey struct {
	slot int
	res  int
}

const slotRecv = -2

// releaseSummary records which parameters a function definitely
// releases on every exit path.
type releaseSummary struct {
	released map[relKey]bool
}

// runPairing runs the pairing machine: may-acquire and must-release
// summaries first, then every function body and every function literal
// as its own obligation scope.
func (c *checker) runPairing() {
	c.report = false
	c.ranked = make([]bool, len(c.spec.Resources))
	for ri := range c.spec.Resources {
		c.ranked[ri] = c.spec.Resources[ri].Rank > 0
	}
	c.summarizeAcquires()
	for pass := 0; pass < 2; pass++ {
		c.funcDecls(func(fd *ast.FuncDecl, obj *types.Func) {
			c.releaseSums[obj] = c.summarizeRelease(fd, obj)
		})
	}
	c.pass.FuncBodies(c.pairAnalyze)
}

// pairAnalyze checks one body: fixpoint silently, replay with
// reporting for double-release / reacquire / ordering / use-after-kill,
// then per-exit-path leak checks.
func (c *checker) pairAnalyze(body *ast.BlockStmt) {
	g := cfg.New(body)
	lat := pairLat{ranked: c.ranked}
	c.report = false
	res := dataflow.Forward(g, lat, c.pairTransfer)
	c.report = true
	res.Replay(func(pairFact, ast.Node) {})
	c.report = false

	localRelease := map[int]bool{}
	for ri := range c.spec.Resources {
		if c.spec.Resources[ri].LeakNeedsLocalRelease {
			localRelease[ri] = c.hasLocalRelease(body, ri)
		}
	}
	res.AtExit(func(blk *cfg.Block, out pairFact) {
		for k, st := range out {
			if k.res < 0 {
				continue
			}
			r := &c.spec.Resources[k.res]
			if st.phase != phaseHeld && st.phase != phasePending && (st.phase != phaseMaybe || !r.EveryPath) {
				continue
			}
			if r.LeakMsg == "" || (r.LeakNeedsLocalRelease && !localRelease[k.res]) {
				continue
			}
			if (st.phase == phasePending || r.WaiveOnError) && errorReturnPath(c.info, blk) {
				continue
			}
			c.reportf(st.pos, "%s", r.LeakMsg)
		}
	})
}

// hasLocalRelease reports whether body syntactically contains any
// release form of resource ri (closures included).
func (c *checker) hasLocalRelease(body *ast.BlockStmt, ri int) bool {
	r := &c.spec.Resources[ri]
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for pi := range r.Release {
				if _, ok := r.Release[pi].Match(c.info, n); ok {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				for pi := range r.ReleaseSet {
					if _, ok := c.matchFieldSet(&r.ReleaseSet[pi], lhs, nil); ok {
						found = true
					}
				}
			}
		case *ast.Ident:
			for pi := range r.ReleaseUse {
				if c.matchIdent(&r.ReleaseUse[pi], n) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// errorReturnPath reports whether the exit-reaching block ends in a
// return whose error-typed result is anything but the nil identifier.
func errorReturnPath(info *types.Info, blk *cfg.Block) bool {
	if len(blk.Nodes) == 0 {
		return false
	}
	ret, ok := blk.Nodes[len(blk.Nodes)-1].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, res := range ret.Results {
		tv, ok := info.Types[res]
		if !ok || !analysis.IsError(tv.Type) {
			continue
		}
		if id, isID := res.(*ast.Ident); isID && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}

// ---- transfer ----

func (c *checker) pairTransfer(f pairFact, n ast.Node) pairFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.pairAssign(f, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, isVS := spec.(*ast.ValueSpec); isVS && len(vs.Values) > 0 {
					c.pairDecl(f, vs)
				}
			}
		}
	case *ast.DeferStmt:
		c.pairDefer(f, n)
	case *ast.GoStmt:
		c.pairGoStmt(f, n)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			c.pairScan(f, res)
			c.pairEscapeExpr(f, res)
		}
	case *ast.SendStmt:
		c.pairScan(f, n.Chan)
		c.pairScan(f, n.Value)
		c.pairEscapeExpr(f, n.Value)
	case *ast.RangeStmt:
		c.pairScan(f, n.X)
	case *ast.TypeSwitchStmt:
		if n.Assign != nil {
			c.pairScan(f, n.Assign)
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			c.pairDiscarded(call)
		}
		c.pairScan(f, n.X)
	default:
		c.pairScan(f, n)
	}
	return f
}

// pairScan walks an expression tree (function literal bodies opaque),
// applying ident promotion/discharge, call semantics and escapes.
func (c *checker) pairScan(f pairFact, n ast.Node) {
	if n == nil {
		return
	}
	taint.WalkNoFuncLit(n, func(node ast.Node) {
		switch node := node.(type) {
		case *ast.Ident:
			c.pairIdent(f, node)
		case *ast.CallExpr:
			c.pairCall(f, node)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				c.pairEscapeExpr(f, node.X)
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				c.pairEscapeExpr(f, elt)
			}
		case *ast.FuncLit:
			c.pairCapture(f, node)
		}
	})
}

// pairIdent applies per-mention effects: ReleaseUse discharges, and
// any use of a pending object's root promotes it to held.
func (c *checker) pairIdent(f pairFact, id *ast.Ident) {
	for ri := range c.spec.Resources {
		r := &c.spec.Resources[ri]
		for pi := range r.ReleaseUse {
			if !c.matchIdent(&r.ReleaseUse[pi], id) {
				continue
			}
			for k, st := range f {
				if k.res == ri && (st.phase == phasePending || st.phase == phaseHeld) {
					f[k] = pairState{phase: phaseReleased, pos: st.pos}
				}
			}
		}
	}
	obj := c.info.Uses[id]
	if obj == nil {
		return
	}
	for k, st := range f {
		if k.root == obj && st.phase == phasePending {
			f[k] = pairState{phase: phaseHeld, pos: st.pos}
		}
	}
}

func (c *checker) pairCall(f pairFact, call *ast.CallExpr) {
	matched := c.pairReleaseCall(f, call, false, true)
	for ri := range c.spec.Resources {
		r := &c.spec.Resources[ri]
		for pi := range r.Acquire {
			base, ok := r.Acquire[pi].Match(c.info, call)
			if !ok {
				continue
			}
			matched = true
			if r.Rank > 0 {
				via := ""
				if len(r.Release) == 0 {
					via = analysis.CalleeFunc(c.info, call).Name()
				}
				c.checkRank(f, call, ri, via)
				if via != "" {
					continue // held only for the duration of the call
				}
			}
			if r.AcquireKey == IdentResult {
				continue // bound to its left-hand side by pairAssign/pairDecl
			}
			if key, kok := c.pairKeyFor(r, ri, r.AcquireKey, call, base); kok {
				c.pairAcquire(f, r, key, call.Pos(), len(analysis.ErrorResults(c.info, call)) > 0)
			}
		}
	}
	for ti := range c.spec.Terminals {
		t := &c.spec.Terminals[ti]
		if base, ok := t.Kill.Match(c.info, call); ok {
			matched = true
			if key, kok := c.termKey(ti, base); kok {
				f[key] = pairState{phase: phaseKilled, pos: call.Pos()}
			}
		}
		for ui := range t.Use {
			if base, ok := t.Use[ui].Match(c.info, call); ok {
				matched = true
				if key, kok := c.termKey(ti, base); kok {
					if st, sok := f[key]; sok && st.phase == phaseKilled && c.report {
						c.reportf(call.Pos(), "%s (closed at %s)", t.Msg, c.pass.Fset.Position(st.pos))
					}
				}
			}
		}
	}
	if !matched {
		c.pairUnknownCall(f, call)
	}
}

// pairReleaseCall applies every release pattern call matches, reporting
// whether any did.
func (c *checker) pairReleaseCall(f pairFact, call *ast.CallExpr, deferred, reportDouble bool) bool {
	matched := false
	for ri := range c.spec.Resources {
		r := &c.spec.Resources[ri]
		for pi := range r.Release {
			if base, ok := r.Release[pi].Match(c.info, call); ok {
				matched = true
				if key, kok := c.pairKeyFor(r, ri, r.ReleaseKey, call, base); kok {
					c.pairRelease(f, r, key, call.Pos(), deferred, reportDouble)
				}
			}
		}
	}
	return matched
}

// pairDiscarded reports an IdentResult acquire whose result the
// statement drops: nothing can release it. A result that is bound,
// returned, stored or passed on is somebody's obligation.
func (c *checker) pairDiscarded(call *ast.CallExpr) {
	if !c.report {
		return
	}
	for ri := range c.spec.Resources {
		r := &c.spec.Resources[ri]
		if r.AcquireKey != IdentResult {
			continue
		}
		for pi := range r.Acquire {
			if _, ok := r.Acquire[pi].Match(c.info, call); ok {
				c.reportf(call.Pos(), "%s: result of %s discarded, nothing can release it", r.LeakMsg, r.Acquire[pi].Name)
			}
		}
	}
}

// pairUnknownCall handles a call outside the spec: a same-package
// callee's may-acquire set is checked against the held ranks; arguments
// that name tracked objects discharge through the callee's must-release
// summary, or escape unless the resource is borrowed; the receiver is a
// borrow unless the summary releases it.
func (c *checker) pairUnknownCall(f pairFact, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(c.info, call)
	var sum *releaseSummary
	if fn != nil && fn.Pkg() == c.pass.Pkg {
		sum = c.releaseSums[fn]
		c.checkCalleeRanks(f, call, fn)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if root, _, rok := chainOf(c.info, sel.X); rok {
			c.calleeEffect(f, root, sum, slotRecv, false)
		}
	}
	for i, arg := range call.Args {
		if root, _, rok := chainOf(c.info, arg); rok {
			c.calleeEffect(f, root, sum, i, true)
		}
	}
}

func (c *checker) calleeEffect(f pairFact, root types.Object, sum *releaseSummary, slot int, escapes bool) {
	for k, st := range f {
		if k.root != root || k.res < 0 {
			continue
		}
		if st.phase != phaseHeld && st.phase != phasePending {
			continue
		}
		r := &c.spec.Resources[k.res]
		if sum != nil && sum.released[relKey{slot, k.res}] {
			f[k] = pairState{phase: phaseReleased, pos: st.pos}
			continue
		}
		if escapes && !r.Borrow && r.movable() {
			delete(f, k)
		}
	}
}

// movable reports whether the resource's obligations can change hands.
// Protocol obligations (RootIdentity, singletons) never do: handing the
// object to a helper or storing it does not satisfy them.
func (r *Resource) movable() bool {
	return !r.RootIdentity && r.AcquireKey != IdentSingleton
}

func (c *checker) pairAcquire(f pairFact, r *Resource, key pairKey, pos token.Pos, pending bool) {
	// A deferred release captured the value it releases, so binding a
	// new result to the same variable leaks nothing; acquiring the same
	// object again while its release is still pending does.
	if st, ok := f[key]; ok && st.holding() && !r.Reentrant &&
		(st.phase != phaseDeferred || r.AcquireKey != IdentResult) {
		if c.report {
			c.reportf(pos, "%s reacquired before release (previous acquisition at %s never released)",
				r.Name, c.pass.Fset.Position(st.pos))
		}
	}
	ph := phaseHeld
	if pending {
		ph = phasePending
	}
	f[key] = pairState{phase: ph, pos: pos}
}

// pairRelease releases key now, or — for a deferred release of a held
// obligation — at exit. A release of an obligation already released, or
// whose release is already deferred, is a double release.
func (c *checker) pairRelease(f pairFact, r *Resource, key pairKey, pos token.Pos, deferred, reportDouble bool) {
	st, ok := f[key]
	if !ok {
		// Releasing something this scope never acquired (a parameter,
		// a field set elsewhere): not an obligation here, but a second
		// release of it is still a double release.
		f[key] = pairState{phase: phaseReleased, pos: pos}
		return
	}
	if deferred && (st.phase == phaseHeld || st.phase == phasePending) {
		f[key] = pairState{phase: phaseDeferred, pos: st.pos}
		return
	}
	if !st.holding() || st.phase == phaseDeferred {
		if c.report && reportDouble && r.DoubleMsg != "" && !r.Idempotent && !r.Reentrant {
			c.reportf(pos, "%s", r.DoubleMsg)
		}
	}
	f[key] = pairState{phase: phaseReleased, pos: st.pos}
}

func (c *checker) pairKeyFor(r *Resource, ri, keySel int, call *ast.CallExpr, base ast.Expr) (pairKey, bool) {
	switch {
	case keySel == IdentSingleton:
		return pairKey{res: ri}, true
	case keySel == IdentRecv:
		return c.keyFromExpr(r, ri, base)
	case keySel == IdentSubject:
		if base == nil && len(call.Args) > 0 {
			base = call.Args[0]
		}
		return c.keyFromExpr(r, ri, base)
	case keySel >= 0 && keySel < len(call.Args):
		return c.keyFromExpr(r, ri, call.Args[keySel])
	}
	return pairKey{}, false
}

func (c *checker) keyFromExpr(r *Resource, ri int, e ast.Expr) (pairKey, bool) {
	if e == nil {
		return pairKey{}, false
	}
	root, path, ok := chainOf(c.info, unslice(e))
	if !ok {
		return pairKey{}, false
	}
	if r.RootIdentity {
		path = ""
	}
	return pairKey{root: root, path: path, res: ri}, true
}

// unslice strips a full slice expression: x[:] is the memory x names.
func unslice(e ast.Expr) ast.Expr {
	if s, ok := e.(*ast.SliceExpr); ok && s.Low == nil && s.High == nil && s.Max == nil {
		return s.X
	}
	return e
}

func (c *checker) termKey(ti int, base ast.Expr) (pairKey, bool) {
	if base == nil {
		return pairKey{}, false
	}
	root, path, ok := chainOf(c.info, base)
	if !ok {
		return pairKey{}, false
	}
	return pairKey{root: root, path: path, res: -(ti + 1)}, true
}

// pairEscapeExpr removes ownership obligations whose chain the
// expression names (returned, stored away, sent, address-taken).
func (c *checker) pairEscapeExpr(f pairFact, e ast.Expr) {
	root, path, ok := chainOf(c.info, unslice(e))
	if !ok {
		return
	}
	for k := range f {
		if k.root != root || k.res < 0 || !c.spec.Resources[k.res].movable() {
			continue
		}
		if pathPrefix(k.path, path) || pathPrefix(path, k.path) {
			delete(f, k)
		}
	}
}

// pairCapture hands the obligations a function literal references to
// the literal: it may run after this frame returns (a goroutine, a
// stored callback), and its body is analyzed as a scope of its own.
func (c *checker) pairCapture(f pairFact, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		id, isID := node.(*ast.Ident)
		if !isID {
			return true
		}
		obj := c.info.Uses[id]
		if obj == nil {
			return true
		}
		for k := range f {
			if k.root == obj && k.res >= 0 && c.spec.Resources[k.res].movable() {
				delete(f, k)
			}
		}
		return true
	})
}

func pathPrefix(prefix, full string) bool {
	return len(prefix) <= len(full) && full[:len(prefix)] == prefix
}

// ---- statement forms ----

// pairAssign handles acquisition binding, field-set acquire/release,
// alias moves and store escapes.
func (c *checker) pairAssign(f pairFact, n *ast.AssignStmt) {
	for _, rhs := range n.Rhs {
		c.pairScan(f, rhs)
	}
	// Bind results of acquire calls to their left-hand sides.
	if len(n.Rhs) == 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
			c.bindAcquire(f, call, n.Lhs)
		}
	} else if len(n.Rhs) == len(n.Lhs) {
		for i, rhs := range n.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				c.bindAcquire(f, call, n.Lhs[i:i+1])
			}
		}
	}
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		}
		c.pairFieldSet(f, lhs, rhs)
		c.pairAliasOrStore(f, lhs, rhs)
	}
}

func (c *checker) pairDecl(f pairFact, vs *ast.ValueSpec) {
	for _, rhs := range vs.Values {
		c.pairScan(f, rhs)
	}
	if len(vs.Values) == 1 {
		if call, ok := vs.Values[0].(*ast.CallExpr); ok {
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			c.bindAcquire(f, call, lhs)
		}
	}
}

// bindAcquire tracks the value result of an IdentResult acquire under
// the left-hand side it is assigned to.
func (c *checker) bindAcquire(f pairFact, call *ast.CallExpr, lhs []ast.Expr) {
	for ri := range c.spec.Resources {
		r := &c.spec.Resources[ri]
		if r.AcquireKey != IdentResult {
			continue
		}
		acquired := false
		for pi := range r.Acquire {
			if _, ok := r.Acquire[pi].Match(c.info, call); ok {
				acquired = true
				break
			}
		}
		if !acquired {
			continue
		}
		target := resultTarget(c.info, call, lhs)
		if target == nil {
			continue
		}
		if id, isID := target.(*ast.Ident); isID && id.Name == "_" {
			if c.report {
				c.reportf(call.Pos(), "%s: result assigned to _, nothing can release it", r.LeakMsg)
			}
			continue
		}
		if key, kok := c.keyFromExpr(r, ri, target); kok {
			c.pairAcquire(f, r, key, call.Pos(), len(analysis.ErrorResults(c.info, call)) > 0)
		}
	}
}

// resultTarget picks the left-hand side receiving the call's first
// non-error result.
func resultTarget(info *types.Info, call *ast.CallExpr, lhs []ast.Expr) ast.Expr {
	if len(lhs) == 1 {
		return lhs[0]
	}
	errIdx := map[int]bool{}
	for _, i := range analysis.ErrorResults(info, call) {
		errIdx[i] = true
	}
	for i, l := range lhs {
		if !errIdx[i] {
			return l
		}
	}
	return nil
}

func (c *checker) pairFieldSet(f pairFact, lhs, rhs ast.Expr) {
	for ri := range c.spec.Resources {
		r := &c.spec.Resources[ri]
		for pi := range r.AcquireSet {
			if base, ok := c.matchFieldSet(&r.AcquireSet[pi], lhs, rhs); ok {
				if key, kok := c.keyFromExpr(r, ri, base); kok {
					c.pairAcquire(f, r, key, lhs.Pos(), false)
				}
			}
		}
		c.pairReleaseSet(f, r, ri, lhs, rhs, false, true)
	}
}

// pairReleaseSet applies r's field-assignment release forms to lhs = rhs.
func (c *checker) pairReleaseSet(f pairFact, r *Resource, ri int, lhs, rhs ast.Expr, deferred, reportDouble bool) {
	for pi := range r.ReleaseSet {
		if base, ok := c.matchFieldSet(&r.ReleaseSet[pi], lhs, rhs); ok {
			if key, kok := c.keyFromExpr(r, ri, base); kok {
				c.pairRelease(f, r, key, lhs.Pos(), deferred, reportDouble)
			}
		}
	}
}

// pairAliasOrStore moves an obligation along `alias := tracked` and
// escapes obligations stored into fields, elements, maps or package
// variables.
func (c *checker) pairAliasOrStore(f pairFact, lhs, rhs ast.Expr) {
	if rhs == nil {
		return
	}
	rroot, rpath, rok := chainOf(c.info, rhs)
	if !rok {
		return
	}
	lroot, lpath, lok := chainOf(c.info, lhs)
	if _, isID := lhs.(*ast.Ident); !isID || (lok && lroot.Parent() == c.pass.Pkg.Scope()) {
		// Stored into a field, element or package variable: the object
		// outlives this scope.
		c.pairEscapeExpr(f, rhs)
		return
	}
	if !lok {
		return // _ = x
	}
	for k, st := range f {
		if k.root != rroot || k.path != rpath || k.res < 0 {
			continue
		}
		if st.phase != phaseHeld && st.phase != phasePending {
			continue
		}
		if !c.spec.Resources[k.res].movable() {
			continue
		}
		delete(f, k)
		f[pairKey{root: lroot, path: lpath, res: k.res}] = st
	}
}

// pairDefer registers deferred releases: every path past the defer runs
// them at exit, so the obligation stays held until then. A deferred kill
// runs after every use, so it kills nothing in the body.
func (c *checker) pairDefer(f pairFact, n *ast.DeferStmt) {
	call := n.Call
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		c.deferClosure(f, lit)
	} else if !c.pairReleaseCall(f, call, true, true) {
		c.pairUnknownCall(f, call)
	}
	for _, a := range call.Args {
		c.pairScan(f, a)
	}
}

// deferClosure scans a deferred function literal for release forms and
// defers the matching releases. Conditions inside the closure are not
// modelled, so no double-release reporting from here.
func (c *checker) deferClosure(f pairFact, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.pairReleaseCall(f, n, true, false)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				for ri := range c.spec.Resources {
					c.pairReleaseSet(f, &c.spec.Resources[ri], ri, lhs, rhs, true, false)
				}
			}
		case *ast.Ident:
			c.pairIdent(f, n)
		}
		return true
	})
}

// pairGoStmt hands the goroutine everything it is given: its arguments
// and the obligations its closure references leave this scope (the
// closure body is analyzed as its own scope, with nothing held).
func (c *checker) pairGoStmt(f pairFact, n *ast.GoStmt) {
	if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
		c.pairCapture(f, lit)
	}
	for _, a := range n.Call.Args {
		c.pairScan(f, a)
		c.pairEscapeExpr(f, a)
	}
}

// ---- lock order ----

// summarizeAcquires computes every function's transitive may-acquire
// set of ranked resources: those it acquires outside function literals
// (a literal's body runs with its own held set) plus its same-package
// callees' sets.
func (c *checker) summarizeAcquires() {
	if !slices.Contains(c.ranked, true) {
		return
	}
	callees := map[*types.Func][]*types.Func{}
	c.funcDecls(func(fd *ast.FuncDecl, obj *types.Func) {
		set := map[int]bool{}
		taint.WalkNoFuncLit(fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			acquires := false
			for ri := range c.spec.Resources {
				for pi := range c.spec.Resources[ri].Acquire {
					if _, ok := c.spec.Resources[ri].Acquire[pi].Match(c.info, call); ok && c.ranked[ri] {
						set[ri], acquires = true, true
					}
				}
			}
			if fn := analysis.CalleeFunc(c.info, call); !acquires && fn != nil && fn.Pkg() == c.pass.Pkg {
				callees[obj] = append(callees[obj], fn)
			}
		})
		c.acquireSums[obj] = set
	})
	for changed := true; changed; {
		changed = false
		for fn, set := range c.acquireSums {
			for _, callee := range callees[fn] {
				for ri := range c.acquireSums[callee] {
					if !set[ri] {
						set[ri] = true
						changed = true
					}
				}
			}
		}
	}
}

// checkCalleeRanks reports the first (by name) ranked resource in a
// same-package callee's may-acquire set that the held locks forbid.
func (c *checker) checkCalleeRanks(f pairFact, call *ast.CallExpr, fn *types.Func) {
	if !c.report || len(c.acquireSums[fn]) == 0 {
		return
	}
	var ris []int
	for ri := range c.acquireSums[fn] {
		ris = append(ris, ri)
	}
	sort.Slice(ris, func(i, j int) bool { return c.spec.Resources[ris[i]].Name < c.spec.Resources[ris[j]].Name })
	for _, ri := range ris {
		if c.checkRank(f, call, ri, fn.Name()) {
			return
		}
	}
}

// checkRank reports acquiring ranked resource ri — directly, or through
// the function named via — while a ranked resource of no lower rank is
// held on every path here; it reports whether it did.
func (c *checker) checkRank(f pairFact, call *ast.CallExpr, ri int, via string) bool {
	if !c.report {
		return false
	}
	r := &c.spec.Resources[ri]
	var worst *Resource
	for k, st := range f {
		if k.res < 0 || !c.ranked[k.res] || !st.holding() {
			continue
		}
		h := &c.spec.Resources[k.res]
		if h.Rank >= r.Rank && (worst == nil || h.Rank > worst.Rank || (h.Rank == worst.Rank && h.Name < worst.Name)) {
			worst = h
		}
	}
	if worst == nil {
		return false
	}
	what := "acquires"
	if via != "" {
		what = "call to " + via + " may acquire"
	}
	c.reportf(call.Pos(), "%s %s (rank %d) while holding %s (rank %d): locks are taken in increasing rank",
		what, r.Name, r.Rank, worst.Name, worst.Rank)
	return true
}

// ---- must-release summaries ----

// summarizeRelease computes which of fd's parameters it releases on
// every exit path, so callers can discharge through helper calls.
func (c *checker) summarizeRelease(fd *ast.FuncDecl, obj *types.Func) *releaseSummary {
	sig := obj.Type().(*types.Signature)
	slots := map[types.Object]int{}
	if r := sig.Recv(); r != nil && r.Name() != "" {
		slots[r] = slotRecv
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); p.Name() != "" {
			slots[p] = i
		}
	}
	if len(slots) == 0 || len(c.spec.Resources) == 0 {
		return &releaseSummary{}
	}
	seed := pairFact{}
	for obj := range slots {
		for ri := range c.spec.Resources {
			seed[pairKey{root: obj, path: "", res: ri}] = pairState{phase: phaseHeld, pos: fd.Pos()}
		}
	}
	g := cfg.New(fd.Body)
	res := dataflow.Forward(g, pairLat{seed: seed, ranked: c.ranked}, c.pairTransfer)
	var released map[relKey]bool
	res.AtExit(func(_ *cfg.Block, out pairFact) {
		path := map[relKey]bool{}
		// A release anywhere under the parameter's root counts: a
		// helper releasing s.Engine discharges the obligation seeded
		// at s.
		for k, st := range out {
			if (st.phase != phaseReleased && st.phase != phaseDeferred) || k.res < 0 {
				continue
			}
			if slot, ok := slots[k.root]; ok {
				path[relKey{slot, k.res}] = true
			}
		}
		if released == nil {
			released = path
			return
		}
		for k := range released {
			if !path[k] {
				delete(released, k)
			}
		}
	})
	if released == nil {
		released = map[relKey]bool{}
	}
	return &releaseSummary{released: released}
}
