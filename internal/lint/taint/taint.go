// Package taint is the shared taint engine behind the plaintextflow,
// obsleak and ctcompare analyzers and the callgraph summary builder. It is
// flow-sensitive: facts are propagated over the basic-block CFG from
// internal/lint/cfg by the worklist framework in internal/lint/dataflow, so
// assigning a clean value to a variable KILLS its taint from that point on,
// and a variable tainted on one branch is tainted only at and after the
// merge, not retroactively.
//
// A fact maps each local object to a label bitset (Labels): bits 0..55 mean
// "may carry the value of parameter i" (receiver = parameter 0 for methods)
// and the high bits mark values derived from a source call (plaintext, key
// material). Param bits exist so one fixpoint doubles as the function's
// summary: run with parameters seeded, read the label sets at returns and
// sinks, and the result says which params flow where — the raw material of
// internal/lint/callgraph.
//
// Call resolution, in order:
//
//  1. Sources (per-analyzer policy, over the trust vocabulary's roles) —
//     results carry the returned source bits.
//  2. Universal sanitizers — len, cap, crypto/subtle functions and
//     hmac.Equal return clean values: sizes and constant-time verdicts are
//     declared channels.
//  3. Crypto boundaries (the vocabulary's Boundary rows) — results carry
//     nothing beyond what the sources gave them.
//  4. Oracle summaries — when the callee has a summary, each result gets
//     exactly the labels the callee's own dataflow proved, and the callee's
//     sink hits let call sites report "argument reaches fmt.Errorf inside
//     callee" without re-reading its body.
//  5. Unknown callees (stdlib, interface methods, func values) — every
//     result conservatively unions the argument labels.
//
// In every case, error-typed RESULTS come back clean: error values are
// sentinels. The only way plaintext enters an error value is through a
// format sink (fmt.Errorf, errors.New), and that flow is reported at the
// sink itself, directly in the function that formats or at the call site
// via its summary's sink hits.
//
// Function literals are analyzed as may-effects: a closure's assignments
// join into the enclosing state (union, no kills — the closure may run at
// any time or not at all), and sink checks inside closure bodies see that
// saturated state.
//
// Concurrency does not launder taint. A channel is modeled as a conduit:
// every send ORs the payload's labels into the channel object (weak update
// — a later clean send cannot recall an in-flight secret), and every
// receive form (<-ch, v := <-ch, v, ok := <-ch, range ch) reads the
// channel's accumulated labels back out. This holds whether the send sits
// in straight-line code, in a spawned closure (go func() { ch <- pt }()),
// or in a select arm. go f(x) needs no special rule: sinks inside f are
// found through f's own summary, reported at the spawn site like any call.
//
// Aggregates have two readings, chosen per policy. The default is
// conservative: a store into a field or element, or through a pointer,
// taints the whole base variable. Config.Ownership is secretescape's
// OWNERSHIP TRANSFER: a value stored into a field or element of a
// frame-local object is filed under that (object, field) cell; reading the
// field returns it, reading the WHOLE object does not. Storing a secret
// into a struct you are building hands it to the aggregate, whose disposal
// is secretretain's question, not an escape — without this rule every
// constructor that files a key into the object it returns would flag. The
// cost is deliberate: `ch <- sess` does not re-surface the key stored in
// sess.aead. A store through an object the frame does not own changes no
// state under Ownership: it is an escape, judged by the policy.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/cfg"
	"alwaysencrypted/internal/lint/dataflow"
	"alwaysencrypted/internal/lint/trust"
)

// Labels is a bitset of taint labels carried by a value.
type Labels uint64

const (
	// MaxParams caps how many leading parameters get their own label bit.
	MaxParams = 56
	// SrcPlaintext marks data derived from a decrypt/open primitive.
	SrcPlaintext Labels = 1 << 56
	// SrcKeyMaterial marks data derived from key generation or unwrapping.
	SrcKeyMaterial Labels = 1 << 57

	paramMask Labels = (1 << 56) - 1
)

// ParamLabel returns the label bit for parameter i (0-based; receiver is
// parameter 0 on methods). Parameters beyond MaxParams share the last bit,
// which is conservative in the union direction.
func ParamLabel(i int) Labels {
	if i >= MaxParams {
		i = MaxParams - 1
	}
	return 1 << uint(i)
}

// Params masks l down to its parameter bits.
func (l Labels) Params() Labels { return l & paramMask }

// Cell is one tracked location: an object (Field nil), or under
// Config.Ownership one struct field of a frame-local object.
type Cell struct {
	Obj   types.Object
	Field *types.Var
}

// State maps cells to the labels they may carry at one program point.
type State map[Cell]Labels

// SinkHit records one sink reached inside a function body, expressed over
// that function's own parameter labels.
type SinkHit struct {
	// Params are the parameter label bits that reach the sink. Zero means
	// the sink is fed only by the function's own locals (still a finding in
	// the function itself, but invisible to callers).
	Params Labels
	// Kind is the sink family: "format", "obs", "trace" or "compare".
	Kind string
	// Desc names the concrete sink ("fmt.Errorf", "Counter.Add", "==").
	Desc string
}

// FuncInfo is a function's taint summary.
type FuncInfo struct {
	// Results[i] holds the labels of result i: parameter bits mean "flows
	// from that argument", source bits mean the callee introduces them.
	Results []Labels
	// Sinks lists sinks inside the callee (including transitively, folded
	// through its own callees' summaries).
	Sinks []SinkHit
}

// Oracle resolves callee summaries; implemented by internal/lint/callgraph.
type Oracle interface {
	// Summary returns fn's summary or nil when unknown (stdlib, interface
	// methods, out-of-module code).
	Summary(fn *types.Func) *FuncInfo
}

// Config selects the taint policy for one Checker.
type Config struct {
	Pass *analysis.Pass
	// Sources returns the label bits introduced by a call's results, or 0
	// if the call is not a source.
	Sources func(call *ast.CallExpr) Labels
	// Oracle resolves interprocedural summaries; nil means intraprocedural.
	Oracle Oracle
	// Ownership selects the ownership-transfer reading of aggregates (see
	// the package comment).
	Ownership bool
}

// Checker runs the fixpoint for one function body and answers label queries
// at specific program points.
type Checker struct {
	cfg  Config
	body *ast.BlockStmt
	seed State
	// stateAt maps every node in the body to the state holding immediately
	// before its enclosing statement executes (closure bodies see the
	// closure-saturated state).
	stateAt map[ast.Node]State
}

// NewChecker builds a checker for one function body under the given policy.
func NewChecker(cfg Config) *Checker {
	return &Checker{cfg: cfg, seed: State{}, stateAt: map[ast.Node]State{}}
}

// Walk runs the policy's fixpoint over every function declaration of the
// package and calls visit with the function's checker on every node of its
// body, closures included: the shared driver of the sink analyzers.
func Walk(pass *analysis.Pass, sources func(*ast.CallExpr) Labels, oracle Oracle, visit func(c *Checker, n ast.Node)) {
	pass.FuncDecls(func(fd *ast.FuncDecl) {
		c := NewChecker(Config{Pass: pass, Sources: sources, Oracle: oracle})
		c.Analyze(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n != nil {
				visit(c, n)
			}
			return true
		})
	})
}

// SeedParam pre-taints obj with parameter label i before analysis; used by
// the summary builder.
func (c *Checker) SeedParam(obj types.Object, i int) {
	if obj != nil {
		c.seed[Cell{Obj: obj}] = ParamLabel(i)
	}
}

type lattice struct{ seed State }

func (l lattice) Bottom() State { return maps.Clone(l.seed) }

func (lattice) Clone(s State) State { return maps.Clone(s) }

func (lattice) Join(dst, src State) (State, bool) {
	changed := false
	for k, v := range src {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return dst, changed
}

// Analyze runs the dataflow fixpoint over body and records per-node states
// for LabelsAt queries.
func (c *Checker) Analyze(body *ast.BlockStmt) {
	c.body = body
	g := cfg.New(body)
	lat := lattice{seed: c.seed}
	res := dataflow.Forward[State](g, lat, c.transfer)
	res.Replay(func(st State, n ast.Node) {
		snap := lat.Clone(st)
		// The whole statement subtree outside closures shares the pre-state.
		WalkNoFuncLit(n, func(sub ast.Node) { c.stateAt[sub] = snap })
		// Closure bodies see the saturated post-state: their effects have
		// been joined in, and they may observe any later write too — but
		// later kills don't reach them, which is the safe direction.
		if lits := analysis.FuncLits(n); len(lits) > 0 {
			sat := c.transfer(lat.Clone(st), n)
			for _, lit := range lits {
				ast.Inspect(lit, func(sub ast.Node) bool {
					if sub != nil {
						c.stateAt[sub] = sat
					}
					return true
				})
			}
		}
	})
}

// WalkNoFuncLit visits n and its descendants, not descending into function
// literal bodies (the literal node itself is visited).
func WalkNoFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return false
		}
		visit(sub)
		_, isLit := sub.(*ast.FuncLit)
		return !isLit
	})
}

// transfer applies one CFG node's effect to st.
func (c *Checker) transfer(st State, n ast.Node) State {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assignStmt(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			c.genDecl(st, gd)
		}
	case *ast.RangeStmt:
		labels := c.ExprLabels(st, n.X)
		if n.Value != nil {
			c.assignTo(st, n.Value, labels)
		}
		if n.Key != nil {
			// Map keys over tainted maps stay conservative; slice/array
			// indices are clean ints, but distinguishing is not worth the
			// type plumbing here.
			c.assignTo(st, n.Key, labels)
		}
	case *ast.TypeSwitchStmt:
		c.typeSwitch(st, n)
	case *ast.ExprStmt:
		c.exprEffects(st, n.X)
	case *ast.DeferStmt:
		c.exprEffects(st, n.Call)
	case *ast.GoStmt:
		c.exprEffects(st, n.Call)
	case *ast.SendStmt:
		c.exprEffects(st, n.Value)
		// A channel is a conduit: the channel object accumulates the labels
		// of everything sent on it, and receives (<-ch, range ch, v, ok :=
		// <-ch) read those labels back out through ExprLabels. Weak update —
		// a send never cleans what an earlier send put in flight.
		if labels := c.ExprLabels(st, n.Value); labels != 0 {
			c.weakAssign(st, n.Chan, labels)
		}
	case *ast.IncDecStmt:
		c.exprEffects(st, n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.exprEffects(st, r)
		}
	case ast.Expr:
		// Hoisted control expressions (if/for conditions, switch tags, case
		// expressions) may contain calls with effects.
		c.exprEffects(st, n)
	}
	for _, lit := range analysis.FuncLits(n) {
		c.closureEffect(st, lit)
	}
	return st
}

func (c *Checker) assignStmt(st State, n *ast.AssignStmt) {
	for _, r := range n.Rhs {
		c.exprEffects(st, r)
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		c.assignMulti(st, n.Lhs, n.Rhs[0])
		return
	}
	for i := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			if c.copyObject(st, n.Lhs[i], n.Rhs[i]) {
				continue
			}
			c.assignTo(st, n.Lhs[i], c.ExprLabels(st, n.Rhs[i]))
			continue
		}
		// x += tainted keeps x's old labels too.
		c.assignTo(st, n.Lhs[i], c.ExprLabels(st, n.Rhs[i])|c.ExprLabels(st, n.Lhs[i]))
	}
}

func (c *Checker) genDecl(st State, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := vs.Values[0].(*ast.CallExpr); ok {
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				c.assignMultiCall(st, lhs, call)
				continue
			}
			labels := c.ExprLabels(st, vs.Values[0])
			for _, name := range vs.Names {
				c.setIdent(st, name, labels, true)
			}
			continue
		}
		for i, name := range vs.Names {
			var labels Labels
			if i < len(vs.Values) {
				c.exprEffects(st, vs.Values[i])
				labels = c.ExprLabels(st, vs.Values[i])
			}
			c.setIdent(st, name, labels, true)
		}
	}
}

func (c *Checker) typeSwitch(st State, n *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch a := n.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				x = ta.X
			}
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return
	}
	labels := c.ExprLabels(st, x)
	if labels == 0 {
		return
	}
	for _, cl := range n.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if obj := c.cfg.Pass.TypesInfo.Implicits[cc]; obj != nil {
			st[Cell{Obj: obj}] |= labels
		}
	}
}

// assignMulti handles x, err := <rhs> for both call and non-call RHS.
func (c *Checker) assignMulti(st State, lhs []ast.Expr, rhs ast.Expr) {
	if call, ok := rhs.(*ast.CallExpr); ok {
		c.assignMultiCall(st, lhs, call)
		return
	}
	// Comma-ok forms: v, ok := m[k] / x.(T) / <-ch.
	labels := c.ExprLabels(st, rhs)
	for i, l := range lhs {
		if i == 0 {
			c.assignTo(st, l, labels)
		} else {
			c.assignTo(st, l, 0)
		}
	}
}

func (c *Checker) assignMultiCall(st State, lhs []ast.Expr, call *ast.CallExpr) {
	results := c.callResultLabels(st, call, len(lhs))
	for i, l := range lhs {
		var labels Labels
		if i < len(results) {
			labels = results[i]
		}
		if labels != 0 && c.isErrorExpr(l) {
			// Belt and braces with the tuple-type check in callResultLabels:
			// error values are sentinels (see package comment).
			labels = 0
		}
		c.assignTo(st, l, labels)
	}
}

// callResultLabels computes the labels of each result of call under st.
// Error-typed results always come back clean: error values are sentinels
// (see the package comment), and propagating labels through one would
// only duplicate the finding at every later wrap of it.
func (c *Checker) callResultLabels(st State, call *ast.CallExpr, nResults int) []Labels {
	res := c.rawCallResultLabels(st, call, nResults)
	for _, i := range analysis.ErrorResults(c.cfg.Pass.TypesInfo, call) {
		if i < len(res) {
			res[i] = 0
		}
	}
	return res
}

func (c *Checker) rawCallResultLabels(st State, call *ast.CallExpr, nResults int) []Labels {
	res := make([]Labels, nResults)
	if src := c.sources(call); src != 0 {
		for i := range res {
			res[i] = src
		}
		return res
	}
	if UniversalSanitizer(c.cfg.Pass.TypesInfo, call) {
		return res
	}
	// Crypto boundary calls are authoritative: the policy's Sources function
	// is the complete statement of what their results carry. A seal or open
	// moves data ACROSS trust domains — ciphertext out of Encrypt is public,
	// plaintext out of Decrypt is not key material — so propagating the key
	// operand's labels through the call (as a summary or the unknown-callee
	// union would) is a category error, not caution.
	if trust.Call(c.cfg.Pass.TypesInfo, call).Roles&trust.Boundary != 0 {
		return res
	}
	fn := analysis.CalleeFunc(c.cfg.Pass.TypesInfo, call)
	if fn != nil && c.cfg.Oracle != nil {
		if sum := c.cfg.Oracle.Summary(fn); sum != nil {
			args := c.ArgLabels(st, call, fn)
			for i := range res {
				if i < len(sum.Results) {
					res[i] = ExpandLabels(sum.Results[i], args)
				}
			}
			return res
		}
	}
	// Unknown callee: every result may carry any argument's taint.
	var u Labels
	for _, a := range call.Args {
		u |= c.ExprLabels(st, a)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		u |= c.ExprLabels(st, sel.X)
	}
	for i := range res {
		res[i] = u
	}
	return res
}

// ArgLabels returns the labels of each actual argument aligned with the
// callee's summary parameter indexing: methods put the receiver at index 0.
// Variadic extras fold into the last parameter slot.
func (c *Checker) ArgLabels(st State, call *ast.CallExpr, fn *types.Func) []Labels {
	sig, _ := fn.Type().(*types.Signature)
	offset := 0
	var args []Labels
	if sig != nil && sig.Recv() != nil {
		offset = 1
		var recv Labels
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			recv = c.ExprLabels(st, sel.X)
		}
		args = append(args, recv)
	}
	nParams := -1
	if sig != nil {
		nParams = sig.Params().Len() + offset
	}
	for _, a := range call.Args {
		l := c.ExprLabels(st, a)
		if nParams > 0 && len(args) >= nParams {
			args[len(args)-1] |= l
			continue
		}
		args = append(args, l)
	}
	return args
}

// ExpandLabels substitutes actual argument labels for parameter bits in a
// summary label set, keeping source bits as-is.
func ExpandLabels(sum Labels, args []Labels) Labels {
	out := sum &^ paramMask
	p := sum.Params()
	for i := 0; p != 0 && i < MaxParams; i++ {
		bit := Labels(1) << uint(i)
		if p&bit == 0 {
			continue
		}
		p &^= bit
		if i < len(args) {
			out |= args[i]
		}
	}
	return out
}

// exprEffects applies side effects of calls nested in e: copy() into a
// destination and CBC decryption (decryptsInto) taint their target buffers.
func (c *Checker) exprEffects(st State, e ast.Expr) {
	WalkNoFuncLit(e, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			c.callEffect(st, call)
		}
	})
}

// callEffect applies call's effect on its first argument, reporting change.
func (c *Checker) callEffect(st State, call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "copy" {
		if labels := c.ExprLabels(st, call.Args[1]); labels != 0 {
			return c.weakAssign(st, call.Args[0], labels)
		}
	}
	return c.decryptsInto(call) && c.weakAssign(st, call.Args[0], SrcPlaintext)
}

// closureEffect joins a function literal's may-effects into st: assignments
// and copies apply as weak updates (no kills) to a fixpoint, since the
// closure may run zero or more times at unknown points.
func (c *Checker) closureEffect(st State, lit *ast.FuncLit) {
	for {
		changed := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
						results := c.callResultLabels(st, call, len(n.Lhs))
						for i, l := range n.Lhs {
							if results[i] != 0 && !c.isErrorExpr(l) {
								changed = c.weakTo(st, l, results[i]) || changed
							}
						}
						return true
					}
				}
				for i := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if labels := c.ExprLabels(st, n.Rhs[i]); labels != 0 {
						changed = c.weakTo(st, n.Lhs[i], labels) || changed
					}
				}
			case *ast.SendStmt:
				// go func() { ch <- pt }(): the spawned closure feeds the
				// channel, so the channel object picks up the payload's
				// labels in the enclosing state and any receive — inside or
				// outside the closure — reads them back.
				if labels := c.ExprLabels(st, n.Value); labels != 0 {
					changed = c.weakAssign(st, n.Chan, labels) || changed
				}
			case *ast.CallExpr:
				changed = c.callEffect(st, n) || changed
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// assignTo writes labels to an assignment target: plain identifiers get a
// strong update (labels replace — a clean RHS kills taint); writes through
// pointers, indices, slices and fields are weak (weakAssign).
func (c *Checker) assignTo(st State, target ast.Expr, labels Labels) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		c.setIdent(st, t, labels, true)
	case *ast.StarExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.SelectorExpr:
		if labels != 0 {
			c.weakAssign(st, t, labels)
		}
	}
}

// weakTo is a closure's assignment: a weak update of a variable, or a
// write through any other target.
func (c *Checker) weakTo(st State, target ast.Expr, labels Labels) bool {
	if id, ok := ast.Unparen(target).(*ast.Ident); ok {
		return c.setIdent(st, id, labels, false)
	}
	return c.weakAssign(st, target, labels)
}

// weakAssign ORs labels into the cell a write through target lands in — a
// field, element or pointee store, a send on a channel, a copy into a
// buffer — and reports change. The conservative reading files the write
// under target's base variable. Ownership files it under the (object,
// field) cell of a frame-local base and drops it when the frame does not
// own the base.
func (c *Checker) weakAssign(st State, target ast.Expr, labels Labels) bool {
	cell := Cell{Obj: c.baseObject(target)}
	if c.cfg.Ownership {
		cell = c.fieldCell(target)
		if !c.Local(cell.Obj) {
			return false
		}
	}
	if cell.Obj == nil || st[cell]|labels == st[cell] {
		return false
	}
	st[cell] |= labels
	return true
}

// copyObject applies y = x between variables: y takes x's own labels and,
// under Ownership, every field cell of x, so ownership transfer survives a
// whole-object copy. It reports whether target and value were variables.
func (c *Checker) copyObject(st State, target, value ast.Expr) bool {
	l, lok := ast.Unparen(target).(*ast.Ident)
	r, rok := ast.Unparen(value).(*ast.Ident)
	if !lok || !rok || l.Name == "_" {
		return false
	}
	dst, src := c.objectOf(l), c.objectOf(r)
	if dst == nil || src == nil {
		return false
	}
	c.kill(st, dst)
	for k, v := range st {
		if k.Obj == src && v != 0 {
			st[Cell{dst, k.Field}] |= v
		}
	}
	return true
}

// kill drops every cell of obj.
func (c *Checker) kill(st State, obj types.Object) {
	delete(st, Cell{Obj: obj})
	if c.cfg.Ownership {
		for k := range st {
			if k.Obj == obj {
				delete(st, k)
			}
		}
	}
}

// setIdent updates one identifier's labels; strong replaces, weak ORs.
func (c *Checker) setIdent(st State, id *ast.Ident, labels Labels, strong bool) bool {
	if id.Name == "_" {
		return false
	}
	obj := c.objectOf(id)
	if obj == nil {
		return false
	}
	cell := Cell{Obj: obj}
	old := st[cell]
	if strong {
		c.kill(st, obj)
		if labels != 0 {
			st[cell] = labels
		}
		return old != labels
	}
	if old|labels == old {
		return false
	}
	st[cell] |= labels
	return true
}

// ExprLabels computes the labels of e under st.
func (c *Checker) ExprLabels(st State, e ast.Expr) Labels {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := c.cfg.Pass.TypesInfo.Uses[x]; obj != nil {
			return st[Cell{Obj: obj}]
		}
		return 0
	case *ast.SelectorExpr:
		// A field read returns the field's own cell (written only under
		// Ownership) plus whatever its base carries; pkg.Var reads the
		// variable.
		return st[c.selectorCell(x)] | c.ExprLabels(st, x.X)
	case *ast.IndexExpr:
		return c.ExprLabels(st, x.X)
	case *ast.SliceExpr:
		return c.ExprLabels(st, x.X)
	case *ast.StarExpr:
		return c.ExprLabels(st, x.X)
	case *ast.ParenExpr:
		return c.ExprLabels(st, x.X)
	case *ast.UnaryExpr:
		return c.ExprLabels(st, x.X)
	case *ast.BinaryExpr:
		return c.ExprLabels(st, x.X) | c.ExprLabels(st, x.Y)
	case *ast.TypeAssertExpr:
		return c.ExprLabels(st, x.X)
	case *ast.CompositeLit:
		var l Labels
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if c.cfg.Ownership {
					continue // the aggregate owns its keyed values
				}
				elt = kv.Value
			}
			l |= c.ExprLabels(st, elt)
		}
		return l
	case *ast.CallExpr:
		res := c.callResultLabels(st, x, 1)
		return res[0]
	}
	return 0
}

// fieldCell resolves a store target (x, x.f, r.keys[id], *p, s[i:j]) to its
// Ownership cell: an element store keeps field precision, so
// r.keys[id] = x is filed at (r, keys), not (r, nil) — otherwise every
// index write through a field would undo ownership transfer for the whole
// aggregate.
func (c *Checker) fieldCell(e ast.Expr) Cell {
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
			return c.selectorCell(t)
		case *ast.Ident:
			return Cell{Obj: c.objectOf(t)}
		default:
			return Cell{}
		}
	}
}

// selectorCell resolves x.f (possibly nested, x.a.b) to the base object
// and the FINAL field. Package-qualified variables are the object itself;
// method values are the base.
func (c *Checker) selectorCell(sel *ast.SelectorExpr) Cell {
	info := c.cfg.Pass.TypesInfo
	s := info.Selections[sel]
	if s == nil {
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok {
			return Cell{Obj: v}
		}
	}
	if s == nil || s.Kind() != types.FieldVal {
		return Cell{Obj: c.baseObject(sel.X)}
	}
	field, _ := s.Obj().(*types.Var)
	return Cell{Obj: c.baseObject(sel.X), Field: field}
}

// baseObject resolves the variable under a chain of parens, stars,
// indices, slices, selectors and unary operators.
func (c *Checker) baseObject(e ast.Expr) types.Object {
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
			return c.objectOf(t)
		default:
			return nil
		}
	}
}

func (c *Checker) objectOf(id *ast.Ident) types.Object {
	return c.cfg.Pass.TypesInfo.ObjectOf(id)
}

// Local reports whether obj is declared inside the analyzed body: one of
// the frame's own variables, not a parameter, receiver or global.
func (c *Checker) Local(obj types.Object) bool {
	return obj != nil && declaredIn(obj, c.body)
}

func declaredIn(obj types.Object, n ast.Node) bool {
	return obj.Pos() != token.NoPos && obj.Pos() >= n.Pos() && obj.Pos() <= n.End()
}

// CapturedAt returns the labels lit's body reads from the variables it
// captures, under the state before n, the statement creating lit. It is
// selector-precise: mentioning o.f captures o's field cell and o itself,
// a bare o only o itself — a metrics callback reading len(e.sessions)
// captures no key filed under another field.
func (c *Checker) CapturedAt(n ast.Node, lit *ast.FuncLit) Labels {
	st := c.stateAt[n]
	info := c.cfg.Pass.TypesInfo
	var l Labels
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[m]; s != nil && s.Kind() == types.FieldVal {
				if base := c.baseObject(m.X); base != nil && !declaredIn(base, lit) {
					l |= st[c.selectorCell(m)] | st[Cell{Obj: base}]
				}
			}
		case *ast.Ident:
			if obj := c.objectOf(m); obj != nil && !declaredIn(obj, lit) {
				l |= st[Cell{Obj: obj}]
			}
		}
		return true
	})
	return l
}

// LabelsAt returns the labels of e at its own program point (after
// Analyze). Unreached code has no state and reports clean.
func (c *Checker) LabelsAt(e ast.Expr) Labels {
	st, ok := c.stateAt[e]
	if !ok {
		return 0
	}
	return c.ExprLabels(st, e)
}

// StateAt exposes the recorded state before n's statement, for analyses that
// query objects rather than expressions (naked returns). Nil if unreached.
func (c *Checker) StateAt(n ast.Node) State { return c.stateAt[n] }

// ExprTainted reports whether e may carry any taint at its program point.
func (c *Checker) ExprTainted(e ast.Expr) bool { return c.LabelsAt(e) != 0 }

func (c *Checker) sources(call *ast.CallExpr) Labels {
	if c.cfg.Sources == nil {
		return 0
	}
	return c.cfg.Sources(call)
}

func (c *Checker) isErrorExpr(e ast.Expr) bool {
	return analysis.IsError(c.cfg.Pass.TypesInfo.TypeOf(e))
}

// UniversalSanitizer reports calls whose results are clean regardless of
// argument taint, shared by every policy: len/cap (sizes are a declared
// channel), crypto/subtle (constant-time verdicts are the declared
// comparison output) and hmac.Equal.
func UniversalSanitizer(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if id.Name == "len" || id.Name == "cap" {
			_, builtin := info.Uses[id].(*types.Builtin)
			return builtin
		}
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "crypto/subtle":
		return true
	case "crypto/hmac":
		return fn.Name() == "Equal"
	}
	return false
}

// EnclaveSources returns the Sources policy of the analyzers guarding
// plaintext (plaintextflow, obsleak): the vocabulary's Plaintext rows (and
// EnclavePlaintext rows, when the caller is the enclave package) label
// their results SrcPlaintext, its SharedKey rows SrcKeyMaterial. The
// CBC-decrypter CryptBlocks and cipher.Block Decrypt destinations are
// handled by the checker's propagation directly.
func EnclaveSources(pass *analysis.Pass) func(call *ast.CallExpr) Labels {
	inEnclave := analysis.PackagePathIs(pass.Pkg, "enclave")
	return func(call *ast.CallExpr) Labels {
		r := trust.Call(pass.TypesInfo, call).Roles
		switch {
		case r&trust.Plaintext != 0, r&trust.EnclavePlaintext != 0 && inEnclave:
			return SrcPlaintext
		case r&trust.SharedKey != 0:
			return SrcKeyMaterial
		}
		return 0
	}
}

// SecretSources returns the Sources policy for key-material analyzers
// (ctcompare): the vocabulary's Secret rows label their results
// SrcKeyMaterial.
func SecretSources(pass *analysis.Pass) func(call *ast.CallExpr) Labels {
	return func(call *ast.CallExpr) Labels {
		if trust.Call(pass.TypesInfo, call).Roles&trust.Secret != 0 {
			return SrcKeyMaterial
		}
		return 0
	}
}

// decryptsInto matches the calls that decrypt into their first argument:
// the vocabulary's DecryptsInto rows (Decrypt on a cipher.Block, which CBC
// opened block by block calls), and CryptBlocks on a block mode a
// Decrypter row built (cipher.NewCBCDecrypter(...).CryptBlocks(dst, src)).
func (c *Checker) decryptsInto(call *ast.CallExpr) bool {
	info := c.cfg.Pass.TypesInfo
	if trust.Call(info, call).Roles&trust.DecryptsInto != 0 {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "CryptBlocks" {
		return false
	}
	inner, ok := sel.X.(*ast.CallExpr)
	return ok && trust.Call(info, inner).Roles&trust.Decrypter != 0
}

// Base returns the variable a store to e lands in: e's own, the base of a
// field, element or pointee, or the package variable pkg.V names.
func (c *Checker) Base(e ast.Expr) types.Object { return c.fieldCell(e).Obj }
