package taint_test

import (
	"go/ast"
	"strings"
	"testing"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/analysis/analysistest"
	"alwaysencrypted/internal/lint/callgraph"
	"alwaysencrypted/internal/lint/taint"
)

// flowAnalyzer reports the source kinds reaching every sink(x) argument and
// the sinks call arguments reach inside callees, so the fixture's want
// comments pin the engine's propagation rules one by one.
var flowAnalyzer = &analysis.Analyzer{
	Name: "flow",
	Doc:  "taint engine test harness",
	Run: func(pass *analysis.Pass) (any, error) {
		sources := func(call *ast.CallExpr) taint.Labels {
			if id, ok := call.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "secret":
					return taint.SrcPlaintext
				case "key":
					return taint.SrcKeyMaterial
				}
			}
			return 0
		}
		oracle := callgraph.For(pass)
		taint.Walk(pass, sources, oracle, func(c *taint.Checker, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "sink" {
				if l := c.LabelsAt(call.Args[0]); l != 0 {
					pass.Reportf(call.Args[0].Pos(), "tainted: %s", kinds(l))
				}
			}
			for _, hit := range callgraph.CallSiteHits(c, pass.TypesInfo, call, oracle, "format") {
				pass.Reportf(call.Pos(), "reaches %s inside %s", hit.Desc, analysis.CalleeFunc(pass.TypesInfo, call).Name())
			}
		})
		return nil, nil
	},
}

func kinds(l taint.Labels) string {
	var out []string
	if l&taint.SrcPlaintext != 0 {
		out = append(out, "plaintext")
	}
	if l&taint.SrcKeyMaterial != 0 {
		out = append(out, "key")
	}
	return strings.Join(out, "+")
}

// TestFlow pins strong vs weak assignment, branch merges, closure capture,
// channel and goroutine conduits, error-result sentinels, sanitizers and
// interprocedural sink hits.
func TestFlow(t *testing.T) {
	analysistest.Run(t, "testdata", flowAnalyzer, "flow")
}

func TestExpandLabels(t *testing.T) {
	sum := taint.ParamLabel(0) | taint.ParamLabel(2) | taint.SrcKeyMaterial
	args := []taint.Labels{taint.SrcPlaintext, taint.SrcPlaintext | taint.SrcKeyMaterial, 0}
	if got := taint.ExpandLabels(sum, args); got != taint.SrcPlaintext|taint.SrcKeyMaterial {
		t.Errorf("ExpandLabels = %b, want plaintext+key (param 0's labels plus the summary's own source bit)", got)
	}
	if got := taint.ParamLabel(taint.MaxParams + 3); got != taint.ParamLabel(taint.MaxParams-1) {
		t.Errorf("parameters past MaxParams must share the last bit, got %b", got)
	}
}
