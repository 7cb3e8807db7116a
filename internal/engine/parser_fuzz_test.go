package engine

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strconv"
	"testing"
)

// FuzzParse: the lexer and parser take every statement text a client sends,
// before anything else looks at it. No input may panic them, and an accepted
// statement never carries a parameter without a name. Seeds: every string
// literal of parser_test.go (its statements and their variants) plus
// placeholder edge cases of the kind go-sqlparams guards against —
// parameters inside strings and comments, doubled quotes, casts, a bare or
// doubled @ at any position.
// testdata/fuzz/FuzzParse keeps the crasher that read past the closing EOF
// token.
func FuzzParse(f *testing.F) {
	fset := gotoken.NewFileSet()
	file, err := goparser.ParseFile(fset, "parser_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				f.Add(s)
			}
		}
		return true
	})
	for _, s := range []string{
		"SELECT id FROM t WHERE x = @",
		"SELECT id FROM t WHERE x = @@x",
		"SELECT id FROM t WHERE x = @ AND y = @y",
		"SELECT id FROM t WHERE note = 'mail@example.com' AND id = @id",
		"SELECT id FROM t WHERE s = 'it''s @x' AND v = @x_1",
		"SELECT id FROM t -- WHERE x = @x\nWHERE y = @y",
		"SELECT id FROM t WHERE x = N'@x'",
		"SELECT id FROM t WHERE x = @x::int",
		"SELECT id FROM t WHERE x = '@",
		"INSERT INTO t (a) VALUES (@a)@",
		"UPDATE t SET a = @a WHERE b = @b;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		for _, tok := range toks {
			if err == nil && tok.kind == tokParam && tok.text == "" {
				t.Fatalf("lex(%q) accepted a parameter without a name at %d", src, tok.pos)
			}
		}
		Parse(src)
	})
}
