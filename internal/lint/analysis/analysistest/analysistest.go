// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want "regexp" comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract.
//
// Fixtures live in a GOPATH-style tree: testdata/src/<importpath>/*.go, and
// import each other by those paths. Imports that do not resolve inside the
// tree (the standard library, real repo packages) are resolved through
// compiler export data, so fixtures may freely use types like cipher.AEAD.
package analysistest

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/callgraph"
)

// Run loads the fixture packages named by pkgs from testdata/src, applies a
// to each, and reports mismatches between diagnostics and // want
// expectations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	srcdir := filepath.Join(testdata, "src")
	ld, err := newFixtureLoader(srcdir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, path := range pkgs {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("analysistest: loading fixture %s: %v", path, err)
		}
		diags, err := analysis.RunAnalyzer(a, pkg)
		if err != nil {
			t.Fatalf("analysistest: running %s on %s: %v", a.Name, path, err)
		}
		checkExpectations(t, pkg, diags)
	}
}

// expectation is one parsed // want "re" token.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

type lineKey struct {
	file string
	line int
}

func checkExpectations(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				rest := strings.TrimSpace(text[idx+len("want "):])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Errorf("%s: malformed want comment: %q", pos, rest)
						break
					}
					unq, _ := strconv.Unquote(q)
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, unq, err)
						break
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: unq})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.raw)
			}
		}
	}
}

// fixtureLoader type-checks fixture packages, resolving intra-tree imports
// from source and everything else from export data.
type fixtureLoader struct {
	srcdir  string
	fset    *token.FileSet
	loaded  map[string]*analysis.Package
	loading map[string]bool
	ext     types.Importer
}

func newFixtureLoader(srcdir string) (*fixtureLoader, error) {
	ld := &fixtureLoader{
		srcdir:  srcdir,
		fset:    token.NewFileSet(),
		loaded:  make(map[string]*analysis.Package),
		loading: make(map[string]bool),
	}
	ext, err := ld.externalImports()
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	if len(ext) > 0 {
		// Run from the test's working directory (the analyzer package), not
		// from inside testdata, which the go tool treats specially.
		listed, err := analysis.GoList(".", append([]string{"-e=false", "-export", "-deps", "-json"}, ext...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	ld.ext = analysis.ExportImporter(ld.fset, exports)
	return ld, nil
}

// externalImports scans every fixture file for imports that do not resolve
// inside the fixture tree.
func (ld *fixtureLoader) externalImports() ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	err := filepath.Walk(ld.srcdir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "" || seen[p] || ld.isFixture(p) {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

func (ld *fixtureLoader) isFixture(path string) bool {
	fi, err := os.Stat(filepath.Join(ld.srcdir, filepath.FromSlash(path)))
	return err == nil && fi.IsDir()
}

// Import implements types.Importer over fixture-first resolution.
func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if ld.isFixture(path) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.ext.Import(path)
}

func (ld *fixtureLoader) load(path string) (*analysis.Package, error) {
	if pkg, ok := ld.loaded[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := filepath.Join(ld.srcdir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	pkg, err := analysis.CheckPackage(ld.fset, ld, path, dir, names)
	if err != nil {
		return nil, err
	}
	ld.loaded[path] = pkg
	// Imported fixtures finished loading (and registering) first, so this
	// registration order is dependency order, as callgraph requires.
	callgraph.RegisterPackage(pkg)
	return pkg, nil
}
