// Package cfg builds basic-block control-flow graphs from AST function
// bodies, using only the standard library. It is the substrate of the
// flow-sensitive analyses in internal/lint: the taint engine, the zeroize
// tracker, and the lock-order simulation all run a dataflow fixpoint over
// these graphs instead of walking raw syntax.
//
// Coverage: if/else, for (all three clauses), range, switch and type switch
// (with fallthrough), select (with and without default), goto, labeled
// break/continue, return, and panic. Statements live in Blocks in execution
// order; control expressions (an if condition, a switch tag, a range
// operand) appear as bare ast.Expr nodes in the block that evaluates them,
// so transfer functions see every evaluated expression exactly once.
//
// Modelling decisions, chosen for the lint analyses that consume the graphs:
//
//   - A synthetic Exit block collects every return and the fall-off-the-end
//     path. "On every exit path" properties (keyzero) check the blocks whose
//     successor is Exit.
//   - A call to the predeclared panic ends its block with no successors:
//     panicking paths do not reach Exit, so exit-path obligations do not
//     apply to them (a panic converts to a host-visible fault long before
//     resource hygiene matters).
//   - defer statements appear both in their block (in execution order, for
//     taint) and in Graph.Defers (for exit-path analyses that model deferred
//     cleanup as running at every return reached after the defer).
//   - Function literals are opaque expressions: their bodies are not part of
//     the enclosing graph. Analyses that care build a separate graph per
//     literal.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block: a maximal sequence of nodes with a single entry
// at the top and branching only at the bottom.
type Block struct {
	Index int
	Kind  string // debug label: "entry", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Live reports reachability from the entry block; dataflow skips dead
	// blocks (code after return/goto with no label flowing in).
	Live bool
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block // synthetic; no Nodes
	Blocks []*Block
	// Defers lists every defer statement in the body in source order.
	Defers []*ast.DeferStmt
}

// String renders the graph compactly for golden tests: one line per block,
// "index kind -> succ,succ".
func (g *Graph) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "%d %s [%d nodes] ->", blk.Index, blk.Kind, len(blk.Nodes))
		for _, s := range blk.Succs {
			fmt.Fprintf(&b, " %d", s.Index)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// New builds the graph for one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*labelInfo{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.edge(b.cur, b.g.Exit)
	b.mark()
	return b.g
}

// labelInfo tracks one label: the block control jumps to (for goto and for
// entering the labeled statement), plus break/continue targets when the
// labeled statement is a loop, switch or select.
type labelInfo struct {
	target     *Block
	breakTo    *Block
	continueTo *Block
}

// scope is one enclosing breakable/continuable construct.
type scope struct {
	breakTo    *Block
	continueTo *Block // nil for switch/select
	label      string
}

type builder struct {
	g      *Graph
	cur    *Block
	scopes []scope
	labels map[string]*labelInfo
	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so break/continue with that label resolve to the construct.
	pendingLabel string
	// fallTo is the next case clause's block while building a switch body.
	fallTo *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target and continues building
// in an unreachable successor (standard dead-block technique, so statements
// after a terminator still have a home).
func (b *builder) jump(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// label returns (creating on demand) the info for name, so forward gotos
// resolve: the target block exists before the label is reached.
func (b *builder) label(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{target: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

// enter pushes a breakable scope; loops also get a continue target.
func (b *builder) enter(breakTo, continueTo *Block) {
	lbl := b.pendingLabel
	b.pendingLabel = ""
	b.scopes = append(b.scopes, scope{breakTo: breakTo, continueTo: continueTo, label: lbl})
	if lbl != "" {
		li := b.label(lbl)
		li.breakTo = breakTo
		li.continueTo = continueTo
	}
}

func (b *builder) exit() { b.scopes = b.scopes[:len(b.scopes)-1] }

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.edge(b.cur, li.target)
		b.cur = li.target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, nil)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The header (its Assign and implicit per-clause objects) is seen by
		// transfer functions as the TypeSwitchStmt node itself.
		b.add(s)
		b.switchBody(s.Body, s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			// Panic terminates the path without reaching Exit.
			b.cur = b.newBlock("unreachable")
		}
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt.
		b.add(s)
	}
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if li := b.label(s.Label.Name); li.breakTo != nil {
				b.jump(li.breakTo)
				return
			}
		} else {
			for i := len(b.scopes) - 1; i >= 0; i-- {
				if b.scopes[i].breakTo != nil {
					b.jump(b.scopes[i].breakTo)
					return
				}
			}
		}
	case "continue":
		if s.Label != nil {
			if li := b.label(s.Label.Name); li.continueTo != nil {
				b.jump(li.continueTo)
				return
			}
		} else {
			for i := len(b.scopes) - 1; i >= 0; i-- {
				if b.scopes[i].continueTo != nil {
					b.jump(b.scopes[i].continueTo)
					return
				}
			}
		}
	case "goto":
		if s.Label != nil {
			b.jump(b.label(s.Label.Name).target)
			return
		}
	case "fallthrough":
		if b.fallTo != nil {
			b.jump(b.fallTo)
			return
		}
	}
	// Malformed branch (no matching scope): end the path conservatively.
	b.cur = b.newBlock("unreachable")
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	b.edge(head, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edge(b.cur, done)
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(head, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, done)
	} else {
		b.edge(head, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	post := b.newBlock("for.post")
	done := b.newBlock("for.done")
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(head, done)
	}
	b.edge(head, body)
	b.enter(done, post)
	b.cur = body
	b.stmtList(s.Body.List)
	b.exit()
	b.edge(b.cur, post)
	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.edge(b.cur, head)
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edge(b.cur, head)
	b.cur = head
	// Transfer functions see the RangeStmt node itself: X is evaluated and
	// Key/Value assigned here, once per iteration.
	b.add(s)
	b.edge(head, body)
	b.edge(head, done)
	b.enter(done, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.exit()
	b.edge(b.cur, head)
	b.cur = done
}

// switchBody builds the clause blocks of a switch or type switch. Case
// expressions are evaluated in the head block; fallthrough jumps to the next
// clause's block.
func (b *builder) switchBody(body *ast.BlockStmt, _ *ast.TypeSwitchStmt) {
	head := b.cur
	done := b.newBlock("switch.done")
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("case")
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		} else {
			for _, e := range cc.List {
				head.Nodes = append(head.Nodes, e)
			}
		}
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.enter(done, nil)
	for i, cc := range clauses {
		b.cur = blocks[i]
		if i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		b.stmtList(cc.Body)
		b.fallTo = nil
		b.edge(b.cur, done)
	}
	b.exit()
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	done := b.newBlock("select.done")
	b.enter(done, nil)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, done)
	}
	b.exit()
	// A select with no cases blocks forever: done is unreachable, as no
	// head->done edge exists.
	b.cur = done
}

// mark flags blocks reachable from the entry.
func (b *builder) mark() {
	var visit func(*Block)
	visit = func(blk *Block) {
		if blk.Live {
			return
		}
		blk.Live = true
		for _, s := range blk.Succs {
			visit(s)
		}
	}
	visit(b.g.Entry)
}
