package callgraph_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/analysis/analysistest"
	"alwaysencrypted/internal/lint/callgraph"
	"alwaysencrypted/internal/lint/taint"
)

// summaryAnalyzer prints every function's registered summary at its name:
// the labels of each result and the sinks its parameters reach.
var summaryAnalyzer = &analysis.Analyzer{
	Name: "summary",
	Doc:  "callgraph summary test harness",
	Run: func(pass *analysis.Pass) (any, error) {
		oracle := callgraph.For(pass)
		pass.FuncDecls(func(fd *ast.FuncDecl) {
			sum := oracle.Summary(pass.TypesInfo.Defs[fd.Name].(*types.Func))
			var results, sinks []string
			for _, l := range sum.Results {
				results = append(results, labels(l))
			}
			for _, h := range sum.Sinks {
				sinks = append(sinks, fmt.Sprintf("%s:%s@%s", h.Kind, h.Desc, labels(h.Params)))
			}
			if len(sinks) == 0 {
				sinks = []string{"-"}
			}
			pass.Reportf(fd.Name.Pos(), "results=%s sinks=%s", strings.Join(results, ","), strings.Join(sinks, ","))
		})
		return nil, nil
	},
}

func labels(l taint.Labels) string {
	var out []string
	for i := 0; i < taint.MaxParams; i++ {
		if l&taint.ParamLabel(i) != 0 {
			out = append(out, fmt.Sprintf("p%d", i))
		}
	}
	if len(out) == 0 {
		return "-"
	}
	return strings.Join(out, "+")
}

// TestSummaries pins result flows (including a caller summarized before
// its callee), direct and transitive param→sink hits, and the receiver's
// parameter slot.
func TestSummaries(t *testing.T) {
	analysistest.Run(t, "testdata", summaryAnalyzer, "sum")
}
