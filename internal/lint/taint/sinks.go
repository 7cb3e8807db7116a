package taint

import (
	"go/ast"
	"go/token"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
)

// Sink classifiers shared by the analyzers (direct reporting) and the
// callgraph summary builder (recording which params reach which sinks, so
// call sites can report interprocedurally).

// CallSink classifies call as a host-visible sink and names it ("fmt.Errorf",
// "Counter.Add"). Kind "format" is a formatting channel (fmt printers,
// errors.New, log, panic). Kinds "obs" and "trace" are every entry point of
// the metrics and tracing packages, which export what they are given off the
// host: recording methods take values, registry lookups instrument names,
// spans names and int64 attributes — none may carry plaintext. Both results
// are "" for any other call.
func CallSink(info *types.Info, call *ast.CallExpr) (kind, desc string) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin || info.Uses[id] == nil {
			return "format", "panic"
		}
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "fmt":
		switch name {
		case "Errorf", "Sprintf", "Sprint", "Sprintln",
			"Print", "Printf", "Println",
			"Fprint", "Fprintf", "Fprintln":
			return "format", "fmt." + name
		}
	case "errors":
		if name == "New" {
			return "format", "errors.New"
		}
	case "log":
		return "format", "log." + name
	}
	if recv := analysis.RecvTypeName(fn); recv != "" {
		name = recv + "." + name
	}
	switch {
	case analysis.PackagePathIs(fn.Pkg(), "obs"):
		return "obs", name
	case analysis.PackagePathIs(fn.Pkg(), "obs/trace"):
		return "trace", name
	}
	return "", ""
}

// CompareSink classifies n as a variable-time comparison of data-carrying
// operands: an ==/!=/</<=/>/>= between integers, strings or byte arrays, or
// a bytes.Equal/bytes.Compare call. It returns the sink description and the
// operand expressions, or ("", nil).
//
// Comparisons of bools, interfaces, pointers, channels and nil are not data
// comparisons (branching on err != nil is control flow, not a timing oracle
// over secret bytes) and are never flagged. subtle.* and hmac.Equal never
// reach here: they are universal sanitizers.
func CompareSink(info *types.Info, n ast.Node) (string, []ast.Expr) {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		switch n.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return "", nil
		}
		if !comparableSecretType(info, n.X) || !comparableSecretType(info, n.Y) {
			return "", nil
		}
		return n.Op.String(), []ast.Expr{n.X, n.Y}
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "bytes" {
			return "", nil
		}
		switch fn.Name() {
		case "Equal", "Compare":
			return "bytes." + fn.Name(), n.Args
		}
	}
	return "", nil
}

// comparableSecretType reports whether e's type can hold secret data whose
// comparison is timing-relevant: integers (pad counts, length fields),
// strings, and byte arrays (digest values compared with ==).
func comparableSecretType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Basic:
		if t.Info()&(types.IsInteger|types.IsString) != 0 {
			return true
		}
		return false
	case *types.Array:
		elem, ok := t.Elem().Underlying().(*types.Basic)
		return ok && elem.Kind() == types.Byte
	}
	return false
}
