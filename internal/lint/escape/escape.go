// Package escape is a field-sensitive intraprocedural escape+alias analysis
// for secret-typed values, the substrate under the secretescape analyzer. It
// answers one question per function: which frames does each value born at a
// source call (a decrypt, a key derivation) reach, and through which door —
// a package-level variable, a goroutine spawn, a channel send, a callback, a
// store through a caller-owned object, or a return.
//
// The domain is a root-set lattice over (object, field) pairs: each source
// call site births one root, and the fact maps every local object — and
// every (local object, struct field) pair written in this frame — to the
// bitset of roots it may alias. Propagation runs on the PR 3 CFG + worklist
// solver, so it is flow-sensitive: rebinding an identifier to a clean value
// strongly kills its roots, while writes through pointers, indices and
// fields are weak (may-alias) updates. Channels are conduits, as in the
// taint engine: a send into a frame-local channel parks the payload's roots
// on the channel object and a receive reads them back; a send into a channel
// the frame does not own is an escape event instead.
//
// Field sensitivity uses OWNERSHIP-TRANSFER semantics, the load-bearing
// precision decision: storing a root into a field of a frame-local object
// records it at (object, field), and reading that field returns it — but
// reading the WHOLE object returns only the roots bound to the object
// itself, not the union of its fields. Storing a secret into a struct you
// are building hands ownership to the aggregate; passing, returning or
// capturing the aggregate afterwards is ordinary object flow, and whether
// the aggregate class disposes of its material is a lifetime question
// (secretretain's job), not an escape. Without this rule every constructor
// that files a key into the object it returns would flag, and the signal
// would drown. The cost is deliberate: `ch <- sess` does not re-surface the
// key stored in sess.aead.
//
// Closure captures are selector-precise for the same reason: a closure that
// mentions only o.sessions captures root-wise only what was written to that
// field in this frame, so a metrics callback reading len(e.sessions) stays
// clean while go func() { ch <- cek }() carries the key's root into the
// spawn event.
//
// Events are collected over the converged states (transfer is pure
// propagation) and deduplicated per (root, kind, position). What is worth
// reporting is the client's policy: secretescape reports Global, Go, Send
// and untrusted func-valued Call events and deliberately ignores Return and
// StoreEscaped — declared results and caller-owned aggregates are the legal
// channels out.
package escape

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/cfg"
	"alwaysencrypted/internal/lint/dataflow"
	"alwaysencrypted/internal/lint/taint"
)

// Kind classifies how a root leaves the frame.
type Kind int

const (
	// KindGlobal: stored into (or through) a package-level variable.
	KindGlobal Kind = iota
	// KindGo: reaches a go statement, as a spawned-call argument or a
	// closure capture.
	KindGo
	// KindSend: sent on a channel the frame does not own.
	KindSend
	// KindCall: passed to a call; FuncArg marks roots riding inside a
	// func-valued argument (a callback that may run at any later time).
	KindCall
	// KindStore: stored through a non-frame-local base — a field of a
	// parameter, receiver or global, or an element of a container the
	// caller owns.
	KindStore
	// KindReturn: returned from the function.
	KindReturn
)

func (k Kind) String() string {
	switch k {
	case KindGlobal:
		return "global"
	case KindGo:
		return "go"
	case KindSend:
		return "send"
	case KindCall:
		return "call"
	case KindStore:
		return "store"
	case KindReturn:
		return "return"
	}
	return "?"
}

// Event is one escape of one root.
type Event struct {
	// RootSrc is the display name the Source policy gave the birthing call.
	RootSrc string
	// RootPos locates the source call that birthed the root.
	RootPos token.Pos
	// Kind is the escape door.
	Kind Kind
	// Pos locates the escape itself.
	Pos token.Pos
	// Callee is the resolved target for KindCall/KindGo, when static.
	Callee *types.Func
	// FuncArg marks KindCall events whose root rides inside a func-valued
	// argument rather than a plain one.
	FuncArg bool
}

// Config selects the source policy for one analysis.
type Config struct {
	Pass *analysis.Pass
	// Source returns a display name when call births a secret root ("" if
	// not a source). Error-typed results of a source call stay rootless.
	Source func(call *ast.CallExpr) string
}

// rootset is a bitset of root IDs; root maxRoots-1 is shared by overflow,
// which is conservative in the union direction.
type rootset uint64

const maxRoots = 64

// key addresses one tracked cell: the object itself (field == nil) or one
// of its struct fields written in this frame.
type key struct {
	obj   types.Object
	field *types.Var
}

type state map[key]rootset

type rootMeta struct {
	pos token.Pos
	src string
}

type analyzer struct {
	cfg   Config
	info  *types.Info
	fn    *ast.FuncDecl
	roots map[*ast.CallExpr]int
	meta  []rootMeta
	// locals are the objects defined inside fn.Body: the frame's own
	// variables. Parameters, receivers and globals are not frame-local —
	// writing a root through them is an escape, not bookkeeping.
	locals map[types.Object]bool

	events map[eventKey]Event
}

type eventKey struct {
	root int
	kind Kind
	pos  token.Pos
}

// Analyze runs the escape analysis over fn and returns its escape events in
// position order.
func Analyze(cfg_ Config, fn *ast.FuncDecl) []Event {
	if fn.Body == nil {
		return nil
	}
	a := &analyzer{
		cfg:    cfg_,
		info:   cfg_.Pass.TypesInfo,
		fn:     fn,
		roots:  map[*ast.CallExpr]int{},
		locals: map[types.Object]bool{},
		events: map[eventKey]Event{},
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.info.Defs[id]; obj != nil {
				a.locals[obj] = true
			}
		}
		return true
	})
	g := cfg.New(fn.Body)
	lat := escLattice{}
	res := dataflow.Forward[state](g, lat, a.transfer)
	res.Replay(func(st state, n ast.Node) {
		a.eventsFor(lat.Clone(st), n)
	})
	out := make([]Event, 0, len(a.events))
	for _, ev := range a.events {
		out = append(out, ev)
	}
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.RootPos < b.RootPos
	})
}

type escLattice struct{}

func (escLattice) Bottom() state { return state{} }

func (escLattice) Clone(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (escLattice) Join(dst, src state) (state, bool) {
	changed := false
	for k, v := range src {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return dst, changed
}

// rootFor births (or retrieves) the root for a source call site. Keying by
// call node keeps IDs stable across fixpoint iterations.
func (a *analyzer) rootFor(call *ast.CallExpr, src string) rootset {
	id, ok := a.roots[call]
	if !ok {
		id = len(a.meta)
		if id >= maxRoots {
			id = maxRoots - 1
		} else {
			a.meta = append(a.meta, rootMeta{pos: call.Pos(), src: src})
		}
		a.roots[call] = id
	}
	return 1 << uint(id)
}

// ---- propagation (transfer) ----

func (a *analyzer) transfer(st state, n ast.Node) state {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assignStmt(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			a.genDecl(st, gd)
		}
	case *ast.RangeStmt:
		roots := a.exprRoots(st, n.X)
		if n.Value != nil {
			a.assignTo(st, n.Value, roots, false)
		}
		if n.Key != nil {
			a.assignTo(st, n.Key, roots, false)
		}
	case *ast.SendStmt:
		// Frame-local channel: conduit — park the payload's roots on the
		// channel object so receives read them back. Foreign channel: the
		// escape is recorded by eventsFor; nothing to propagate.
		if b := a.baseObject(n.Chan); b != nil && a.locals[b] {
			a.weak(st, key{b, nil}, a.exprRoots(st, n.Value))
		}
	}
	for _, lit := range analysis.FuncLits(n) {
		a.closureEffect(st, lit)
	}
	return st
}

func (a *analyzer) assignStmt(st state, n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		a.assignMulti(st, n.Lhs, n.Rhs[0])
		return
	}
	for i := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		// Whole-object copy y = x aliases every tracked field of x.
		if rid, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident); ok && n.Tok.IsOperator() {
			if robj := a.useObj(rid); robj != nil {
				if lid, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
					if lobj := a.defOrUseObj(lid); lobj != nil {
						a.copyObject(st, lobj, robj)
						continue
					}
				}
			}
		}
		a.assignTo(st, n.Lhs[i], a.exprRoots(st, n.Rhs[i]), true)
	}
}

func (a *analyzer) genDecl(st state, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			roots := a.exprRoots(st, vs.Values[0])
			for i, name := range vs.Names {
				if i > 0 || !a.errorTyped(name) {
					a.assignTo(st, name, roots, true)
				}
			}
			continue
		}
		for i, name := range vs.Names {
			var roots rootset
			if i < len(vs.Values) {
				roots = a.exprRoots(st, vs.Values[i])
			}
			a.assignTo(st, name, roots, true)
		}
	}
}

// assignMulti handles x, err := <rhs>: source calls root every non-error
// result, comma-ok forms root only the value.
func (a *analyzer) assignMulti(st state, lhs []ast.Expr, rhs ast.Expr) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		roots := a.exprRoots(st, call)
		for _, l := range lhs {
			if a.errorTyped(l) {
				a.assignTo(st, l, 0, true)
				continue
			}
			a.assignTo(st, l, roots, true)
		}
		return
	}
	roots := a.exprRoots(st, rhs)
	for i, l := range lhs {
		if i == 0 {
			a.assignTo(st, l, roots, true)
		} else {
			a.assignTo(st, l, 0, true)
		}
	}
}

// assignTo writes roots to target. Plain identifiers get a strong update
// when strong is set (clean RHS kills aliases); field, index and pointer
// targets with frame-local bases record weakly; non-local bases are the
// event pass's business.
func (a *analyzer) assignTo(st state, target ast.Expr, roots rootset, strong bool) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		obj := a.defOrUseObj(t)
		if obj == nil || t.Name == "_" {
			return
		}
		if strong {
			for k := range st {
				if k.obj == obj {
					delete(st, k)
				}
			}
		}
		if roots != 0 {
			st[key{obj, nil}] |= roots
		}
	case *ast.SelectorExpr:
		if roots == 0 {
			return
		}
		base, field := a.selectorTarget(t)
		if base != nil && a.locals[base] {
			a.weak(st, key{base, field}, roots)
		}
	case *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		if roots == 0 {
			return
		}
		// An element store keeps field precision: r.keys[id] = x records at
		// (r, keys), not (r, nil) — otherwise every index write through a
		// field would undo ownership transfer for the whole aggregate.
		if k, ok := a.elementKey(t); ok && a.locals[k.obj] {
			a.weak(st, k, roots)
		}
	case *ast.CompositeLit:
		// Not assignable; unreachable, kept for symmetry.
	}
}

// elementKey resolves an element/pointer lvalue (m[k], *p, s[i:j], possibly
// through a field: r.keys[id]) to its tracking cell.
func (a *analyzer) elementKey(e ast.Expr) (key, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.SelectorExpr:
			base, field := a.selectorTarget(t)
			if base == nil {
				return key{}, false
			}
			return key{base, field}, true
		case *ast.Ident:
			obj := a.useObj(t)
			if obj == nil {
				return key{}, false
			}
			return key{obj, nil}, true
		default:
			return key{}, false
		}
	}
}

// copyObject implements y = x: y aliases x's own roots and every tracked
// field, preserving ownership-transfer through whole-object copies.
func (a *analyzer) copyObject(st state, dst, src types.Object) {
	for k := range st {
		if k.obj == dst {
			delete(st, k)
		}
	}
	for k, v := range st {
		if k.obj == src && v != 0 {
			st[key{dst, k.field}] |= v
		}
	}
}

func (a *analyzer) weak(st state, k key, roots rootset) {
	if roots != 0 {
		st[k] |= roots
	}
}

// closureEffect joins a literal's may-effects to a fixpoint: assignments and
// sends inside the closure update the enclosing frame weakly, since the
// closure may run zero or more times at unknown points.
func (a *analyzer) closureEffect(st state, lit *ast.FuncLit) {
	for {
		changed := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					roots := a.exprRoots(st, n.Rhs[i])
					if roots == 0 {
						continue
					}
					changed = a.weakTo(st, n.Lhs[i], roots) || changed
				}
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					roots := a.exprRoots(st, n.Rhs[0])
					for _, l := range n.Lhs {
						if roots != 0 && !a.errorTyped(l) {
							changed = a.weakTo(st, l, roots) || changed
						}
					}
				}
			case *ast.SendStmt:
				if b := a.baseObject(n.Chan); b != nil {
					if roots := a.exprRoots(st, n.Value); roots != 0 {
						old := st[key{b, nil}]
						st[key{b, nil}] |= roots
						changed = changed || st[key{b, nil}] != old
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// weakTo is assignTo's weak-only variant for closure bodies; reports change.
func (a *analyzer) weakTo(st state, target ast.Expr, roots rootset) bool {
	var k key
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		obj := a.defOrUseObj(t)
		if obj == nil || t.Name == "_" {
			return false
		}
		k = key{obj, nil}
	case *ast.SelectorExpr:
		base, field := a.selectorTarget(t)
		if base == nil {
			return false
		}
		k = key{base, field}
	default:
		ek, ok := a.elementKey(target)
		if !ok {
			return false
		}
		k = ek
	}
	if st[k]|roots == st[k] {
		return false
	}
	st[k] |= roots
	return true
}

// ---- value queries ----

// exprRoots computes the roots e may alias under st.
func (a *analyzer) exprRoots(st state, e ast.Expr) rootset {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := a.useObj(x); obj != nil {
			return st[key{obj, nil}]
		}
		return 0
	case *ast.SelectorExpr:
		base, field := a.selectorTarget(x)
		if base == nil {
			return 0
		}
		// Field read: the field's own roots plus the object's — a field of
		// a root-valued object carries the root; a field of a clean
		// aggregate carries only what was stored in that field.
		return st[key{base, field}] | st[key{base, nil}]
	case *ast.IndexExpr:
		return a.exprRoots(st, x.X)
	case *ast.SliceExpr:
		return a.exprRoots(st, x.X)
	case *ast.StarExpr:
		return a.exprRoots(st, x.X)
	case *ast.ParenExpr:
		return a.exprRoots(st, x.X)
	case *ast.UnaryExpr:
		// Covers &x (alias) and <-ch (conduit read).
		return a.exprRoots(st, x.X)
	case *ast.TypeAssertExpr:
		return a.exprRoots(st, x.X)
	case *ast.BinaryExpr:
		return a.exprRoots(st, x.X) | a.exprRoots(st, x.Y)
	case *ast.CompositeLit:
		// The aggregate owns keyed field values (ownership transfer); only
		// positional elements — slice/array/map literals — flow through.
		var r rootset
		for _, elt := range x.Elts {
			if _, ok := elt.(*ast.KeyValueExpr); ok {
				continue
			}
			r |= a.exprRoots(st, elt)
		}
		return r
	case *ast.CallExpr:
		return a.callRoots(st, x)
	}
	return 0
}

func (a *analyzer) callRoots(st state, call *ast.CallExpr) rootset {
	if a.cfg.Source != nil {
		if src := a.cfg.Source(call); src != "" {
			return a.rootFor(call, src)
		}
	}
	if taint.UniversalSanitizer(a.info, call) {
		return 0
	}
	// Unknown callee: results may alias any argument (append retains, a
	// wrapper returns its operand). Error-typed single results are
	// sentinels, as everywhere in the suite.
	if a.errorTyped(call) {
		return 0
	}
	var r rootset
	for _, arg := range call.Args {
		r |= a.exprRoots(st, arg)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		r |= a.exprRoots(st, sel.X)
	}
	return r
}

// ---- event collection ----

func (a *analyzer) eventsFor(st state, n ast.Node) {
	switch n := n.(type) {
	case *ast.GoStmt:
		a.spawnEvents(st, n.Call, n.Pos(), KindGo)
		return
	case *ast.DeferStmt:
		// Deferred calls run in-frame before it unwinds: a borrow.
		return
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.emit(st, a.exprRoots(st, r), KindReturn, n.Pos(), nil, false)
		}
	case *ast.SendStmt:
		b := a.baseObject(n.Chan)
		if b == nil || !a.locals[b] {
			a.emit(st, a.exprRoots(st, n.Value), KindSend, n.Pos(), nil, false)
		}
	case *ast.AssignStmt:
		for i := range n.Rhs {
			if i >= len(n.Lhs) {
				break
			}
			a.storeEvents(st, n.Lhs[i], a.exprRoots(st, n.Rhs[i]))
		}
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			roots := a.exprRoots(st, n.Rhs[0])
			for _, l := range n.Lhs {
				if !a.errorTyped(l) {
					a.storeEvents(st, l, roots)
				}
			}
		}
	}
	// Calls anywhere in the statement: callback-capture and plain-arg
	// events. Closure bodies are walked for their own sends/stores only via
	// capture events; their inner statements are separate functions to a
	// client that recurses.
	taint.WalkNoFuncLit(n, func(sub ast.Node) {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return
		}
		if _, isGo := n.(*ast.GoStmt); isGo && call == n.(*ast.GoStmt).Call {
			return // already handled as spawn
		}
		a.callEvents(st, call)
	})
}

// spawnEvents records roots reaching a go statement: spawned-call arguments,
// the receiver, and closure captures.
func (a *analyzer) spawnEvents(st state, call *ast.CallExpr, pos token.Pos, kind Kind) {
	callee := taint.CalleeFunc(a.info, call)
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			a.emit(st, a.capturedRoots(st, lit), kind, pos, callee, true)
			continue
		}
		a.emit(st, a.exprRoots(st, arg), kind, pos, callee, false)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		a.emit(st, a.exprRoots(st, sel.X), kind, pos, callee, false)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		a.emit(st, a.capturedRoots(st, lit), kind, pos, nil, true)
	}
}

// callEvents records roots passed to an ordinary call. Plain arguments are
// borrows (KindCall, FuncArg=false — clients typically ignore them); roots
// captured by func-valued arguments outlive the call and carry FuncArg.
func (a *analyzer) callEvents(st state, call *ast.CallExpr) {
	callee := taint.CalleeFunc(a.info, call)
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			a.emit(st, a.capturedRoots(st, lit), KindCall, call.Pos(), callee, true)
			continue
		}
		if a.funcTyped(arg) {
			a.emit(st, a.exprRoots(st, arg), KindCall, call.Pos(), callee, true)
			continue
		}
		a.emit(st, a.exprRoots(st, arg), KindCall, call.Pos(), callee, false)
	}
}

// storeEvents reports roots written through non-frame-local bases.
func (a *analyzer) storeEvents(st state, target ast.Expr, roots rootset) {
	if roots == 0 {
		return
	}
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		obj := a.defOrUseObj(t)
		if obj == nil || t.Name == "_" {
			return
		}
		if a.packageLevel(obj) {
			a.emit(st, roots, KindGlobal, t.Pos(), nil, false)
		}
	case *ast.SelectorExpr:
		base, _ := a.selectorTarget(t)
		a.baseStoreEvent(st, base, roots, t.Pos())
	case *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		a.baseStoreEvent(st, a.baseObject(t), roots, t.Pos())
	}
}

func (a *analyzer) baseStoreEvent(st state, base types.Object, roots rootset, pos token.Pos) {
	if base == nil {
		a.emit(st, roots, KindStore, pos, nil, false)
		return
	}
	if a.locals[base] {
		return
	}
	if a.packageLevel(base) {
		a.emit(st, roots, KindGlobal, pos, nil, false)
		return
	}
	a.emit(st, roots, KindStore, pos, nil, false)
}

// capturedRoots scans a closure body for roots reachable through captured
// variables, selector-precise: mentioning o.f captures (o,f)∪(o,nil) while
// a bare mention of o captures only (o,nil). Union is idempotent, so
// visiting a selector's base ident again costs nothing.
func (a *analyzer) capturedRoots(st state, lit *ast.FuncLit) rootset {
	var roots rootset
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := a.info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			base := a.baseObject(n.X)
			if base == nil || a.definedIn(base, lit) {
				return true
			}
			field, _ := sel.Obj().(*types.Var)
			roots |= st[key{base, field}] | st[key{base, nil}]
		case *ast.Ident:
			obj := a.useObj(n)
			if obj == nil || a.definedIn(obj, lit) {
				return true
			}
			roots |= st[key{obj, nil}]
		}
		return true
	})
	return roots
}

func (a *analyzer) emit(st state, roots rootset, kind Kind, pos token.Pos, callee *types.Func, funcArg bool) {
	if roots == 0 {
		return
	}
	for id := 0; id < len(a.meta) && roots != 0; id++ {
		bit := rootset(1) << uint(id)
		if roots&bit == 0 {
			continue
		}
		roots &^= bit
		k := eventKey{root: id, kind: kind, pos: pos}
		if _, dup := a.events[k]; dup {
			continue
		}
		a.events[k] = Event{
			RootSrc: a.meta[id].src,
			RootPos: a.meta[id].pos,
			Kind:    kind,
			Pos:     pos,
			Callee:  callee,
			FuncArg: funcArg,
		}
	}
}

// ---- object resolution helpers ----

// baseObject resolves the root identifier's object under an lvalue/rvalue
// chain of parens, stars, indices, slices and selectors.
func (a *analyzer) baseObject(e ast.Expr) types.Object {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		case *ast.Ident:
			return a.useObj(t)
		default:
			return nil
		}
	}
}

// selectorTarget resolves x.f (possibly nested, x.a.b) to the base object
// and the FINAL field's var. Non-field selections (package qualifiers,
// method values) return the qualified object as base with a nil field.
func (a *analyzer) selectorTarget(sel *ast.SelectorExpr) (types.Object, *types.Var) {
	s := a.info.Selections[sel]
	if s == nil {
		// pkg.Var or method expression: the Sel identifier is the object.
		if obj := a.info.Uses[sel.Sel]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return obj, nil
			}
		}
		return a.baseObject(sel.X), nil
	}
	if s.Kind() != types.FieldVal {
		return a.baseObject(sel.X), nil
	}
	field, _ := s.Obj().(*types.Var)
	return a.baseObject(sel.X), field
}

func (a *analyzer) useObj(id *ast.Ident) types.Object {
	if obj := a.info.Uses[id]; obj != nil {
		return obj
	}
	return a.info.Defs[id]
}

func (a *analyzer) defOrUseObj(id *ast.Ident) types.Object {
	if obj := a.info.Defs[id]; obj != nil {
		return obj
	}
	return a.info.Uses[id]
}

func (a *analyzer) packageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func (a *analyzer) definedIn(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() != token.NoPos && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

func (a *analyzer) errorTyped(e ast.Expr) bool {
	return analysis.IsError(a.info.TypeOf(e))
}

func (a *analyzer) funcTyped(e ast.Expr) bool {
	t := a.info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
