package trust

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// neutral lists the cell-crypto exports and enclave sealing helpers that
// carry no trust role, each with the reason. Every other one must have a
// row in Vocabulary, so a new crypto API cannot land registered nowhere.
var neutral = map[string]string{
	"aecrypto.EncryptionType.String": "names an encryption type",
	"aecrypto.NewCellKey":            "schedules a CEK root its caller already holds; the CellKey is a KeyType row",
	"aecrypto.MustCellKey":           "NewCellKey for fixed test keys",
	"aecrypto.WellFormedCiphertext":  "inspects an envelope's public shape",
	"aecrypto.CiphertextLen":         "computes a public length",
	"aecrypto.VerifySignature":       "returns only a verdict over public data",
	"aecrypto.Zeroize":               "disposal",
	"aecrypto.CellKey.Zeroize":       "disposal",
	"aecrypto.schedule.Zeroize":      "disposal",
	"aecrypto.hmacKey.Zeroize":       "disposal",
	"aecrypto.keyedMAC.Write":        "feeds a MAC its input",
	"aecrypto.keyedMAC.Sum":          "a MAC or message-bound IV; its keyed state is the resumed hash, tracked by ivsanity",
	"enclave.sealNonceBytes":         "builds a public nonce from a counter",
}

// declared returns the package's declarations the coverage rule applies
// to, keyed as the vocabulary names them: every func, method and type for
// the row check, and which of them must be registered.
func declared(t *testing.T, pkg string, covered func(name string) bool) (all, must map[string]bool) {
	t.Helper()
	dir := filepath.Join("..", "..", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, must = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch generic := recv.(type) {
					case *ast.IndexExpr:
						recv = generic.X
					case *ast.IndexListExpr:
						recv = generic.X
					}
					key = pkg + "." + recv.(*ast.Ident).Name + "." + d.Name.Name
				}
				all[key] = true
				must[key] = covered(d.Name.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						all[pkg+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return all, must
}

// TestVocabularyCoversCryptoAPI fails when an exported function or method
// of aecrypto, or a sealing helper of the enclave session, is neither a
// vocabulary row nor neutral, and when a row or a neutral entry names a
// declaration that no longer exists.
func TestVocabularyCoversCryptoAPI(t *testing.T) {
	rows := map[string]bool{}
	for _, api := range Vocabulary {
		key := api.Pkg + "." + api.Name
		if api.Recv != "" && api.Recv != "*" {
			key = api.Pkg + "." + api.Recv + "." + api.Name
		}
		rows[key] = true
	}
	for _, pkg := range []struct {
		name    string
		covered func(string) bool
	}{
		{"aecrypto", ast.IsExported},
		{"enclave", func(name string) bool { return strings.Contains(strings.ToLower(name), "seal") }},
	} {
		all, must := declared(t, pkg.name, pkg.covered)
		for key, m := range must {
			if m && !rows[key] && neutral[key] == "" {
				t.Errorf("%s has no trust vocabulary row and is not listed as neutral", key)
			}
		}
		for key := range rows {
			if strings.HasPrefix(key, pkg.name+".") && !all[key] {
				t.Errorf("vocabulary row %s names no declaration", key)
			}
		}
		for key := range neutral {
			if strings.HasPrefix(key, pkg.name+".") && !all[key] {
				t.Errorf("neutral entry %s names no declaration", key)
			}
		}
	}
}
