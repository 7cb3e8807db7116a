package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	dirOnce sync.Once
	dirs    []*IgnoreDirective
}

// ListedPackage is the subset of `go list -json` output the loader consumes.
type ListedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// GoList runs `go list` with the given flags in dir and decodes the JSON
// package stream.
func GoList(dir string, args ...string) ([]*ListedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	// Keep the file lists cgo-free so everything type-checks from pure Go
	// sources and export data.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that resolves import paths through
// compiler export data files (path -> file produced by `go list -export`).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Load lists the packages matching patterns (relative to dir), type-checks
// the matched packages from source — resolving their imports through export
// data, so no dependency sources are re-checked — and returns them in
// dependency order (importees before importers, alphabetical within a
// rank), which the callgraph summary builder relies on. Test files are not
// included: aelint guards the production trust boundary.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"-e=false", "-export", "-deps", "-json"}, patterns...)
	listed, err := GoList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*ListedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	targets = dependencyOrder(targets)

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := CheckPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// dependencyOrder topologically sorts targets so every package follows the
// targets it imports; ties break alphabetically for deterministic output.
func dependencyOrder(targets []*ListedPackage) []*ListedPackage {
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	byPath := make(map[string]*ListedPackage, len(targets))
	for _, t := range targets {
		byPath[t.ImportPath] = t
	}
	var out []*ListedPackage
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(*ListedPackage)
	visit = func(t *ListedPackage) {
		if state[t.ImportPath] != 0 {
			return // visiting (cycle: impossible in valid Go) or done
		}
		state[t.ImportPath] = 1
		for _, imp := range t.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[t.ImportPath] = 2
		out = append(out, t)
	}
	for _, t := range targets {
		visit(t)
	}
	return out
}

// CheckPackage parses and type-checks one package from its source files.
func CheckPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		PkgPath: path,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
