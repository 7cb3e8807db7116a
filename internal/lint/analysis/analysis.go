// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface that the aelint suite needs.
// The build environment has no module proxy access, so the upstream module
// cannot be added to go.mod; this package keeps the same shapes (Analyzer,
// Pass, Diagnostic) so that migrating to the real framework later is an
// import swap, not a rewrite.
//
// The framework adds one feature the suite relies on: suppression
// directives. A comment of the form
//
//	//aelint:ignore <analyzer-name> reason=<justification>
//
// on the flagged line, or on the line directly above it, silences that
// analyzer for that line. The reason= justification is mandatory: the
// directive exists for the rare places where the analyzed property is
// guaranteed by something the analyzer cannot see (e.g. a goroutine join),
// and that argument must be recorded at the waiver site. IgnoreFindings
// audits the directives themselves — a directive without reason=, one
// naming an unknown analyzer, or one that suppressed nothing in a full run
// is itself a finding, so waivers cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //aelint:ignore
	// directives.
	Name string
	// Doc is the help text.
	Doc string
	// Packages restricts the analyzer to the repo packages with these
	// short names (see PackagePathIs); empty means every package.
	// RunAnalyzer skips the others without calling Run.
	Packages []string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// appliesTo reports whether a runs on pkg (see Packages).
func (a *Analyzer) appliesTo(pkg *types.Package) bool {
	for _, short := range a.Packages {
		if PackagePathIs(pkg, short) {
			return true
		}
	}
	return len(a.Packages) == 0
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FuncDecls calls visit for every function declaration with a body.
func (p *Pass) FuncDecls(visit func(fd *ast.FuncDecl)) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// FuncBodies calls visit for the body of every function declaration and of
// every function literal nested in one, each as a scope of its own: a
// closure has its own return paths.
func (p *Pass) FuncBodies(visit func(body *ast.BlockStmt)) {
	p.FuncDecls(func(fd *ast.FuncDecl) {
		visit(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(lit.Body)
			}
			return true
		})
	})
}

// FuncLits returns the outermost function literals under n.
func FuncLits(n ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(n, func(sub ast.Node) bool {
		if lit, ok := sub.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		return true
	})
	return lits
}

// RunAnalyzer applies a to pkg, returning the diagnostics sorted by position
// with //aelint:ignore-suppressed findings removed. Directives that suppress
// a diagnostic are marked used, which IgnoreFindings consults after a full
// run to flag waivers that no longer waive anything.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if !a.appliesTo(pkg.Types) {
		return nil, nil
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	dirs := pkg.IgnoreDirectives()
	byLine := make(map[lineKey][]*IgnoreDirective)
	for _, dir := range dirs {
		if dir.Analyzer != a.Name && dir.Analyzer != "*" {
			continue
		}
		byLine[lineKey{dir.File, dir.Line}] = append(byLine[lineKey{dir.File, dir.Line}], dir)
		byLine[lineKey{dir.File, dir.Line + 1}] = append(byLine[lineKey{dir.File, dir.Line + 1}], dir)
	}
	kept := diags[:0]
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		if matched := byLine[lineKey{p.Filename, p.Line}]; len(matched) > 0 {
			for _, dir := range matched {
				dir.Used = true
			}
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

type lineKey struct {
	file string
	line int
}

// IgnoreDirective is one parsed //aelint:ignore comment.
type IgnoreDirective struct {
	Pos      token.Pos
	File     string
	Line     int
	Analyzer string // named analyzer, or "*"
	Reason   string // text after reason=; empty means the directive is bare
	// Used records that at least one diagnostic was suppressed by this
	// directive during the RunAnalyzer calls made so far.
	Used bool
}

// IgnoreDirectives parses (once) and returns the package's //aelint:ignore
// directives.
func (p *Package) IgnoreDirectives() []*IgnoreDirective {
	p.dirOnce.Do(func() {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "aelint:ignore") {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, "aelint:ignore"))
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					dir := &IgnoreDirective{Pos: c.Pos(), Analyzer: fields[0]}
					if idx := strings.Index(rest, "reason="); idx >= 0 {
						dir.Reason = strings.TrimSpace(rest[idx+len("reason="):])
					}
					pos := p.Fset.Position(c.Pos())
					dir.File, dir.Line = pos.Filename, pos.Line
					p.dirs = append(p.dirs, dir)
				}
			}
		}
	})
	return p.dirs
}

// IgnoreFindings audits the package's ignore directives after every analyzer
// has run: a directive must name a known analyzer (or "*"), must carry a
// reason= justification, and must have suppressed at least one diagnostic.
// A bare or stale waiver is as much a defect as the finding it once hid —
// without this check the justification discipline decays one merge at a
// time. Call it only after RunAnalyzer ran for every analyzer in `known` on
// this package, since Used accumulates across those runs.
func IgnoreFindings(pkg *Package, known []string) []Diagnostic {
	knownSet := make(map[string]bool, len(known))
	for _, n := range known {
		knownSet[n] = true
	}
	var out []Diagnostic
	for _, dir := range pkg.IgnoreDirectives() {
		switch {
		case dir.Analyzer != "*" && !knownSet[dir.Analyzer]:
			out = append(out, Diagnostic{Pos: dir.Pos, Message: fmt.Sprintf(
				"//aelint:ignore names unknown analyzer %q", dir.Analyzer)})
		case dir.Reason == "":
			out = append(out, Diagnostic{Pos: dir.Pos, Message: fmt.Sprintf(
				"//aelint:ignore %s lacks a reason= justification: every waiver must record why the analyzed property holds anyway", dir.Analyzer)})
		case !dir.Used:
			out = append(out, Diagnostic{Pos: dir.Pos, Message: fmt.Sprintf(
				"//aelint:ignore %s suppresses nothing: the finding it waived is gone, remove the directive", dir.Analyzer)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// PackagePathIs reports whether pkg's import path denotes the repo package
// with the given short name: an exact match ("enclave", as fixture packages
// are named) or a "/<short>" suffix ("alwaysencrypted/internal/enclave").
func PackagePathIs(pkg *types.Package, short string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == short || strings.HasSuffix(p, "/"+short)
}

// IsError reports whether t is the predeclared error type.
func IsError(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// ErrorResults returns the positions of error-typed results in call's
// result tuple (a single result is position 0).
func ErrorResults(info *types.Info, call *ast.CallExpr) []int {
	t := info.TypeOf(call)
	tuple, ok := t.(*types.Tuple)
	if !ok {
		if IsError(t) {
			return []int{0}
		}
		return nil
	}
	var out []int
	for i := 0; i < tuple.Len(); i++ {
		if IsError(tuple.At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// WalkStack walks the AST rooted at n, calling fn with each node and the
// stack of its ancestors (outermost first, not including the node itself).
// If fn returns false the node's children are skipped.
func WalkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(node, stack)
		stack = append(stack, node)
		if !ok {
			// Still push/pop correctly: Inspect will not descend, and will
			// not send the nil pop either, so undo the push now.
			stack = stack[:len(stack)-1]
		}
		return ok
	})
}
