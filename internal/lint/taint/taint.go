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
//  1. Sources (per-analyzer policy) — results carry the returned source
//     bits.
//  2. Universal sanitizers — len, cap, crypto/subtle functions and
//     hmac.Equal return clean values: sizes and constant-time verdicts are
//     declared channels.
//  3. Oracle summaries — when the callee has a summary, each result gets
//     exactly the labels the callee's own dataflow proved, and the callee's
//     sink hits let call sites report "argument reaches fmt.Errorf inside
//     callee" without re-reading its body.
//  4. Unknown callees (stdlib, interface methods, func values) — every
//     result conservatively unions the argument labels.
//
// In every case, error-typed RESULTS come back clean: error values are
// sentinels. This is principled, not a precision hack — the only way
// plaintext enters an error value is through a format sink (fmt.Errorf,
// errors.New), and that flow is reported at the sink itself, directly in
// the function that formats or at the call site via its summary's sink
// hits. It replaces the old engine's blanket "error-typed variables never
// carry taint" exemption: flow-sensitive kills remove the false positive
// that exemption papered over (a later x, err := f(tainted) retroactively
// tainting earlier wraps of err), and summary sink hits restore the true
// positives it was hiding (helpers that format plaintext into errors).
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
package taint

import (
	"go/ast"
	"go/token"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/cfg"
	"alwaysencrypted/internal/lint/dataflow"
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

// State maps objects to the labels they may carry at one program point.
type State map[types.Object]Labels

// SinkHit records one sink reached inside a function body, expressed over
// that function's own parameter labels.
type SinkHit struct {
	// Params are the parameter label bits that reach the sink. Zero means
	// the sink is fed only by the function's own locals (still a finding in
	// the function itself, but invisible to callers).
	Params Labels
	// Kind is the sink family: "format", "obs" or "compare".
	Kind string
	// Desc names the concrete sink ("fmt.Errorf", "Counter.Add", "==").
	Desc string
	// Pos locates the sink inside the callee, for diagnostics.
	Pos token.Pos
}

// FuncInfo is a function's taint summary.
type FuncInfo struct {
	NumParams int
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
}

// Checker runs the fixpoint for one function body and answers label queries
// at specific program points.
type Checker struct {
	cfg  Config
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
		c.seed[obj] = ParamLabel(i)
	}
}

type lattice struct{ seed State }

func (l lattice) Bottom() State {
	s := make(State, len(l.seed))
	for k, v := range l.seed {
		s[k] = v
	}
	return s
}

func (lattice) Clone(s State) State {
	c := make(State, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

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
		labels := c.ExprLabels(st, n.Rhs[i])
		if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
			n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN ||
			n.Tok == token.REM_ASSIGN || n.Tok == token.AND_ASSIGN ||
			n.Tok == token.OR_ASSIGN || n.Tok == token.XOR_ASSIGN ||
			n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN ||
			n.Tok == token.AND_NOT_ASSIGN {
			// x += tainted keeps x's old labels too.
			labels |= c.ExprLabels(st, n.Lhs[i])
		}
		c.assignTo(st, n.Lhs[i], labels)
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
			st[obj] |= labels
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
// (every way plaintext enters an error passes a format sink — fmt.Errorf,
// errors.New — which is caught AT that sink, directly or through a callee
// summary's sink hits, so propagating labels through the error value itself
// would only duplicate the finding at every later wrap of it).
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
	if CryptoBoundary(c.cfg.Pass.TypesInfo, call) {
		return res
	}
	fn := CalleeFunc(c.cfg.Pass.TypesInfo, call)
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
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
			if labels := c.ExprLabels(st, call.Args[1]); labels != 0 {
				c.weakAssign(st, call.Args[0], labels)
			}
		}
		if c.decryptsInto(call) && len(call.Args) == 2 {
			c.weakAssign(st, call.Args[0], SrcPlaintext)
		}
	})
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
								changed = c.weakAssign(st, l, results[i]) || changed
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
						changed = c.weakAssign(st, n.Lhs[i], labels) || changed
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
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
					if labels := c.ExprLabels(st, n.Args[1]); labels != 0 {
						changed = c.weakAssign(st, n.Args[0], labels) || changed
					}
				}
				if c.decryptsInto(n) && len(n.Args) == 2 {
					changed = c.weakAssign(st, n.Args[0], SrcPlaintext) || changed
				}
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
// pointers, indices, slices and fields weakly update the base object.
func (c *Checker) assignTo(st State, target ast.Expr, labels Labels) {
	for {
		switch t := target.(type) {
		case *ast.ParenExpr:
			target = t.X
		case *ast.Ident:
			c.setIdent(st, t, labels, true)
			return
		case *ast.StarExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.SelectorExpr:
			if labels != 0 {
				c.weakAssign(st, target, labels)
			}
			return
		default:
			return
		}
	}
}

// weakAssign ORs labels into the base object of target; reports change.
func (c *Checker) weakAssign(st State, target ast.Expr, labels Labels) bool {
	for {
		switch t := target.(type) {
		case *ast.ParenExpr:
			target = t.X
		case *ast.StarExpr:
			target = t.X
		case *ast.IndexExpr:
			target = t.X
		case *ast.SliceExpr:
			target = t.X
		case *ast.SelectorExpr:
			target = t.X
		case *ast.Ident:
			return c.setIdent(st, t, labels, false)
		default:
			return false
		}
	}
}

// setIdent updates one identifier's labels; strong replaces, weak ORs.
func (c *Checker) setIdent(st State, id *ast.Ident, labels Labels, strong bool) bool {
	if id.Name == "_" {
		return false
	}
	info := c.cfg.Pass.TypesInfo
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return false
	}
	if strong {
		old, had := st[obj]
		if labels == 0 {
			delete(st, obj)
			return had
		}
		st[obj] = labels
		return old != labels
	}
	if st[obj]|labels == st[obj] {
		return false
	}
	st[obj] |= labels
	return true
}

// ExprLabels computes the labels of e under st.
func (c *Checker) ExprLabels(st State, e ast.Expr) Labels {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := c.cfg.Pass.TypesInfo.Uses[x]; obj != nil {
			return st[obj]
		}
		return 0
	case *ast.SelectorExpr:
		var l Labels
		if obj := c.cfg.Pass.TypesInfo.Uses[x.Sel]; obj != nil {
			l = st[obj]
		}
		return l | c.ExprLabels(st, x.X)
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
				l |= c.ExprLabels(st, kv.Value)
				continue
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

// AnyArgTainted reports whether any argument of call is tainted at the
// call's program point.
func (c *Checker) AnyArgTainted(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if c.ExprTainted(a) {
			return true
		}
	}
	return false
}

// ReceiverTainted reports whether the method receiver expression is tainted.
func (c *Checker) ReceiverTainted(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && c.ExprTainted(sel.X)
}

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
	fn := CalleeFunc(info, call)
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

// EnclaveSources returns the Sources policy recognizing the decrypt/open
// primitives whose results are plaintext or key material:
//
//   - (*aecrypto.CellKey).Decrypt results           -> SrcPlaintext
//   - (*aecrypto.Opener).Open results               -> SrcPlaintext
//   - (cipher.AEAD).Open results                    -> SrcPlaintext
//   - (*session).openSealed results                 -> SrcPlaintext
//   - (*ecdh.PrivateKey).ECDH results               -> SrcKeyMaterial
//   - (*exprsvc.Evaluator).Eval/EvalBool results when called from the
//     enclave package                               -> SrcPlaintext
//
// The CBC-decrypter CryptBlocks and cipher.Block Decrypt destinations are
// handled by the checker's propagation directly.
func EnclaveSources(pass *analysis.Pass) func(call *ast.CallExpr) Labels {
	return func(call *ast.CallExpr) Labels {
		fn := CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return 0
		}
		recv := RecvTypeName(fn)
		switch fn.Name() {
		case "Decrypt":
			if recv == "CellKey" && analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return SrcPlaintext
			}
		case "Open":
			if recv == "AEAD" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/cipher" {
				return SrcPlaintext
			}
			if recv == "Opener" && analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return SrcPlaintext
			}
		case "openSealed":
			if recv == "session" && analysis.PackagePathIs(fn.Pkg(), "enclave") {
				return SrcPlaintext
			}
		case "ECDH":
			if recv == "PrivateKey" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/ecdh" {
				return SrcKeyMaterial
			}
		case "Eval", "EvalBool":
			// Enclave-side evaluation output; host-side (engine/driver)
			// callers legitimately consume results.
			if recv == "Evaluator" && analysis.PackagePathIs(fn.Pkg(), "exprsvc") &&
				analysis.PackagePathIs(pass.Pkg, "enclave") {
				return SrcPlaintext
			}
		}
		return 0
	}
}

// SecretSources returns the Sources policy for key-material analyzers
// (keyzero, ctcompare): calls whose results are raw key bytes or
// secret-derived MACs.
//
//   - aecrypto.GenerateKey / deriveKey               -> SrcKeyMaterial
//   - (keys.Provider).Unwrap / any Unwrap method in
//     a keys-suffixed package                        -> SrcKeyMaterial
//   - (*ecdh.PrivateKey).ECDH                        -> SrcKeyMaterial
//   - attestation.DeriveSecret                       -> SrcKeyMaterial
//   - (*session).openSealed (sealed-channel payloads
//     carry wrapped keys)                            -> SrcKeyMaterial
//   - hmac.New (the keyed hash object; Sum results
//     inherit via receiver propagation)              -> SrcKeyMaterial
func SecretSources(pass *analysis.Pass) func(call *ast.CallExpr) Labels {
	return func(call *ast.CallExpr) Labels {
		fn := CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return 0
		}
		recv := RecvTypeName(fn)
		switch fn.Name() {
		case "GenerateKey", "deriveKey":
			if analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
				return SrcKeyMaterial
			}
		case "Unwrap":
			if analysis.PackagePathIs(fn.Pkg(), "keys") {
				return SrcKeyMaterial
			}
		case "ECDH":
			if recv == "PrivateKey" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/ecdh" {
				return SrcKeyMaterial
			}
		case "DeriveSecret":
			if analysis.PackagePathIs(fn.Pkg(), "attestation") {
				return SrcKeyMaterial
			}
		case "openSealed":
			if recv == "session" && analysis.PackagePathIs(fn.Pkg(), "enclave") {
				return SrcKeyMaterial
			}
		case "New":
			if fn.Pkg() != nil && fn.Pkg().Path() == "crypto/hmac" {
				return SrcKeyMaterial
			}
		}
		return 0
	}
}

// CryptoBoundary reports whether call is a recognized seal/open primitive
// whose results live in a different trust domain than its operands:
// aecrypto CellKey.Encrypt/Decrypt/Verify, Opener.Open and Sealer.Seal,
// cipher.AEAD Seal/Open, and the enclave session's sealed-channel helpers.
// Each taint policy's Sources function states what these calls' results
// carry for that policy (e.g. Decrypt results are SrcPlaintext under the
// enclave policy and nothing under the secret policy); no generic
// propagation applies on top.
func CryptoBoundary(info *types.Info, call *ast.CallExpr) bool {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	recv := RecvTypeName(fn)
	switch fn.Name() {
	case "Encrypt", "Decrypt", "Verify":
		return recv == "CellKey" && analysis.PackagePathIs(fn.Pkg(), "aecrypto")
	case "Seal", "Open":
		if (recv == "Opener" || recv == "Sealer") && analysis.PackagePathIs(fn.Pkg(), "aecrypto") {
			return true
		}
		return recv == "AEAD" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/cipher"
	case "openSealed", "sealFor":
		return recv == "session" && analysis.PackagePathIs(fn.Pkg(), "enclave")
	}
	return false
}

// decryptsInto matches the calls that decrypt into their first
// argument: cipher.NewCBCDecrypter(...).CryptBlocks(dst, src), and
// Decrypt(dst, src) on a cipher.Block, which CBC opened block by block
// calls.
func (c *Checker) decryptsInto(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok && sel.Sel.Name == "Decrypt" {
		fn := CalleeFunc(c.cfg.Pass.TypesInfo, call)
		return fn != nil && RecvTypeName(fn) == "Block" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/cipher"
	}
	if !ok || sel.Sel.Name != "CryptBlocks" {
		return false
	}
	inner, ok := sel.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := CalleeFunc(c.cfg.Pass.TypesInfo, inner)
	return fn != nil && fn.Name() == "NewCBCDecrypter" && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/cipher"
}
