package typestate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/cfg"
	"alwaysencrypted/internal/lint/dataflow"
	"alwaysencrypted/internal/lint/taint"
)

// chainFact is the per-path protocol state: the establishment level
// proven so far (-1 = depends on the caller, unknown), the position of
// the most recent reset on this path (0 = none), and per-event
// occurrence counts for budgeted events.
type chainFact struct {
	estab    int8
	resetPos token.Pos
	counts   []uint8
}

// chainLat is a must-join lattice: at a merge the establishment level
// is the minimum of the incoming paths (a level holds only if every
// path proved it), the reset position is the earliest reset reaching
// the point, and counts are per-path maxima.
type chainLat struct {
	entry int8
	nMax  int
}

func (l chainLat) Bottom() chainFact {
	return chainFact{estab: l.entry, counts: make([]uint8, l.nMax)}
}

func (l chainLat) Clone(f chainFact) chainFact {
	cp := f
	cp.counts = append([]uint8(nil), f.counts...)
	return cp
}

func (l chainLat) Join(dst, src chainFact) (chainFact, bool) {
	changed := false
	if src.estab < dst.estab {
		dst.estab = src.estab
		changed = true
	}
	if src.resetPos != 0 && (dst.resetPos == 0 || src.resetPos < dst.resetPos) {
		dst.resetPos = src.resetPos
		changed = true
	}
	for i := range dst.counts {
		if i < len(src.counts) && src.counts[i] > dst.counts[i] {
			dst.counts[i] = src.counts[i]
			changed = true
		}
	}
	return dst, changed
}

// chainSummary is one function's interprocedural effect: the level it
// establishes by its (most optimistic) exit, whether any path resets,
// counts of budgeted events it executes, and the strongest Require it
// demands while still entry-dependent.
type chainSummary struct {
	estab    int8
	resets   bool
	counts   []uint8
	need     int8
	needDesc string
}

// runChain runs the chain machine over the package: summaries first
// (three passes settle helper→caller→helper layouts), then a reporting
// pass where protocol roots start at a definite level 0.
func (c *checker) runChain() {
	ch := c.spec.Chain
	c.maxSlot = map[int]int{}
	c.maxCaps = nil
	for i := range ch.Events {
		if ch.Events[i].Max > 0 {
			c.maxSlot[i] = len(c.maxCaps)
			c.maxCaps = append(c.maxCaps, uint8(ch.Events[i].Max)+1)
		}
	}
	c.report = false
	for pass := 0; pass < 3; pass++ {
		c.funcDecls(func(fd *ast.FuncDecl, obj *types.Func) {
			c.chainSums[obj] = c.summarizeChain(fd)
		})
	}
	c.funcDecls(func(fd *ast.FuncDecl, obj *types.Func) {
		entry := int8(-1)
		if c.isChainRoot(fd, obj) {
			entry = 0
		}
		g := cfg.New(fd.Body)
		lat := chainLat{entry: entry, nMax: len(c.maxCaps)}
		c.report = false
		res := dataflow.Forward(g, lat, func(f chainFact, n ast.Node) chainFact {
			c.chainApply(&f, n, nil)
			return f
		})
		// Replay applies the transfer exactly once per node with
		// converged pre-node facts; reporting happens there.
		c.report = true
		res.Replay(func(chainFact, ast.Node) {})
		c.report = false
	})
}

func (c *checker) isChainRoot(fd *ast.FuncDecl, obj *types.Func) bool {
	ch := c.spec.Chain
	if ch.RootExported && fd.Name.IsExported() {
		return true
	}
	name := fd.Name.Name
	if recv := analysis.RecvTypeName(obj); recv != "" {
		name = recv + "." + name
	}
	for _, r := range ch.Roots {
		if r == name {
			return true
		}
	}
	return false
}

// summarizeChain computes one function's summary by running the
// machine entry-dependent (level -1) and folding exit paths.
func (c *checker) summarizeChain(fd *ast.FuncDecl) *chainSummary {
	sum := &chainSummary{estab: -1, counts: make([]uint8, len(c.maxCaps))}
	g := cfg.New(fd.Body)
	lat := chainLat{entry: -1, nMax: len(c.maxCaps)}
	res := dataflow.Forward(g, lat, func(f chainFact, n ast.Node) chainFact {
		c.chainApply(&f, n, sum)
		return f
	})
	res.AtExit(func(_ *cfg.Block, out chainFact) {
		if out.estab > sum.estab {
			sum.estab = out.estab
		}
		if out.resetPos != 0 {
			sum.resets = true
		}
		for i, ct := range out.counts {
			if ct > sum.counts[i] {
				sum.counts[i] = ct
			}
		}
	})
	return sum
}

// chainApply is the transfer function: it dispatches one CFG node and
// feeds every contained call (function literals excluded, deferred
// calls treated as immediate) to the event machine in source order.
func (c *checker) chainApply(f *chainFact, n ast.Node, sum *chainSummary) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		c.chainScan(f, n.Call, sum)
	case *ast.GoStmt:
		// The goroutine body runs at an unknown time; only the argument
		// expressions evaluate here.
		for _, a := range n.Call.Args {
			c.chainScan(f, a, sum)
		}
	case *ast.RangeStmt:
		c.chainScan(f, n.X, sum)
	case *ast.TypeSwitchStmt:
		if n.Assign != nil {
			c.chainScan(f, n.Assign, sum)
		}
	default:
		c.chainScan(f, n, sum)
	}
}

func (c *checker) chainScan(f *chainFact, n ast.Node, sum *chainSummary) {
	taint.WalkNoFuncLit(n, func(node ast.Node) {
		if call, ok := node.(*ast.CallExpr); ok {
			c.chainCall(f, call, sum)
		}
	})
}

func (c *checker) chainCall(f *chainFact, call *ast.CallExpr, sum *chainSummary) {
	ch := c.spec.Chain
	for i := range ch.Events {
		e := &ch.Events[i]
		if _, ok := e.Call.Match(c.info, call); !ok {
			continue
		}
		if e.Require > 0 {
			switch {
			case f.estab >= 0 && int(f.estab) < e.Require:
				if c.report {
					c.reportf(call.Pos(), "%s without %s%s",
						eventName(e), c.levelName(e.Require), c.resetSuffix(f))
				}
			case f.estab < 0 && sum != nil:
				if int8(e.Require) > sum.need {
					sum.need = int8(e.Require)
					sum.needDesc = eventName(e)
				}
			}
		}
		if slot, budgeted := c.maxSlot[i]; budgeted {
			if c.report && int(f.counts[slot]) >= e.Max {
				c.reportf(call.Pos(), "%s more than %d times on one path%s",
					eventName(e), e.Max, c.resetSuffix(f))
			}
			if f.counts[slot] < c.maxCaps[slot] {
				f.counts[slot]++
			}
		}
		if e.Reset {
			f.estab = 0
			f.resetPos = call.Pos()
		}
		if e.Establish > 0 && int(f.estab) < e.Establish {
			f.estab = int8(e.Establish)
		}
	}
	c.chainFold(f, call, sum)
}

// chainFold applies a same-package callee's summary at the call site.
func (c *checker) chainFold(f *chainFact, call *ast.CallExpr, sum *chainSummary) {
	fn := analysis.CalleeFunc(c.info, call)
	if fn == nil || fn.Pkg() != c.pass.Pkg {
		return
	}
	s := c.chainSums[fn]
	if s == nil {
		return
	}
	if s.need > 0 {
		switch {
		case f.estab >= 0 && f.estab < s.need:
			if c.report {
				c.reportf(call.Pos(), "call to %s requires %s (%s inside)%s",
					fn.Name(), c.levelName(int(s.need)), s.needDesc, c.resetSuffix(f))
			}
		case f.estab < 0 && sum != nil:
			if s.need > sum.need {
				sum.need = s.need
				sum.needDesc = s.needDesc
			}
		}
	}
	if s.resets {
		est := s.estab
		if est < 0 {
			est = 0
		}
		f.estab = est
		f.resetPos = call.Pos()
	} else if s.estab > f.estab {
		f.estab = s.estab
	}
	for i, ct := range s.counts {
		if i >= len(f.counts) {
			break
		}
		v := uint16(f.counts[i]) + uint16(ct)
		if v > uint16(c.maxCaps[i]) {
			v = uint16(c.maxCaps[i])
		}
		f.counts[i] = uint8(v)
	}
}

func eventName(e *Event) string {
	if e.Desc != "" {
		return e.Desc
	}
	if e.Call.Recv != "" {
		return fmt.Sprintf("%s.%s called", e.Call.Recv, e.Call.Name)
	}
	return fmt.Sprintf("%s called", e.Call.Name)
}

func (c *checker) levelName(i int) string {
	ch := c.spec.Chain
	if i >= 0 && i < len(ch.Levels) {
		return ch.Levels[i]
	}
	return fmt.Sprintf("level %d", i)
}

func (c *checker) resetSuffix(f *chainFact) string {
	if f.resetPos == 0 {
		return ""
	}
	return fmt.Sprintf(" (protocol state reset at %s)", c.pass.Fset.Position(f.resetPos))
}
