// Package boundaryapi checks that the host-visible surface of the enclave —
// and the client-visible surface of the tds wire layer — carries only
// ciphertext-shaped data. Per §3/Figure 5, the information legally crossing
// the boundary is sealed []byte blobs, opaque handles, attestation reports
// and declared comparison results; sqltypes.Value is the in-memory plaintext
// form and must never appear in an exported signature or wire message.
//
// Checks, applied to the enclave and tds packages:
//
//   - exported functions and methods (on exported receivers) must not accept
//     or return sqltypes.Value, directly or inside any container or struct;
//   - exported functions must not return key material (the trust
//     vocabulary's KeyType rows: *aecrypto.CellKey, the *aecrypto.Opener
//     and *aecrypto.Sealer that carry a cell key's schedule,
//     *rsa.PrivateKey, *ecdh.PrivateKey) — keys live and die inside their
//     trust domain;
//   - exported struct types (the wire messages in tds, whose exported fields
//     the message codec puts on the wire, and the host-visible records in
//     enclave) must not contain sqltypes.Value fields.
package boundaryapi

import (
	"go/ast"
	"go/types"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/trust"
)

// Analyzer is the boundaryapi pass.
var Analyzer = &analysis.Analyzer{
	Name:     "boundaryapi",
	Doc:      "exported enclave/tds APIs must carry only ciphertext-shaped types",
	Packages: []string{"enclave", "tds"},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDecl(pass, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						checkTypeSpec(pass, ts)
					}
				}
			}
		}
	}
	return nil, nil
}

// hostVisible reports whether the function is reachable from outside the
// package: exported name, and for methods an exported receiver type.
func hostVisible(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := pass.TypesInfo.Types[fn.Recv.List[0].Type].Type
	tn := namedTypeName(t)
	return tn == nil || tn.Exported()
}

func checkFuncDecl(pass *analysis.Pass, fn *ast.FuncDecl) {
	if !hostVisible(pass, fn) {
		return
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			t := pass.TypesInfo.Types[field.Type].Type
			if carrier := plaintextCarrier(t, nil); carrier != "" {
				pass.Reportf(field.Type.Pos(),
					"exported %s accepts plaintext-carrying type %s (via %s): the boundary carries only ciphertext blobs, handles and reports",
					fn.Name.Name, typeString(t), carrier)
			}
		}
	}
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			t := pass.TypesInfo.Types[field.Type].Type
			if carrier := plaintextCarrier(t, nil); carrier != "" {
				pass.Reportf(field.Type.Pos(),
					"exported %s returns plaintext-carrying type %s (via %s): the boundary carries only ciphertext blobs, handles and reports",
					fn.Name.Name, typeString(t), carrier)
			}
			if key := trust.KeyMaterial(t); key != "" {
				pass.Reportf(field.Type.Pos(),
					"exported %s returns key material (%s): keys must not leave their trust domain",
					fn.Name.Name, key)
			}
		}
	}
}

// checkTypeSpec flags exported struct types with plaintext-carrying fields
// (the tds wire messages are structs whose exported fields are encoded onto
// the wire for the untrusted network and server to see).
func checkTypeSpec(pass *analysis.Pass, ts *ast.TypeSpec) {
	if !ts.Name.IsExported() {
		return
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if carrier := plaintextCarrier(t, nil); carrier != "" {
			pass.Reportf(field.Type.Pos(),
				"exported struct %s carries plaintext type %s (via %s) across the boundary",
				ts.Name.Name, typeString(t), carrier)
		}
	}
}

// plaintextCarrier reports the path by which t can hold a sqltypes.Value
// ("" if it cannot). Containers and struct fields are searched recursively.
func plaintextCarrier(t types.Type, visited []*types.Named) string {
	switch t := t.(type) {
	case nil:
		return ""
	case *types.Named:
		if isSQLTypesValue(t) {
			return t.Obj().Name()
		}
		for _, v := range visited {
			if v == t {
				return ""
			}
		}
		visited = append(visited, t)
		if s, ok := t.Underlying().(*types.Struct); ok {
			// Only exported fields are boundary-reachable: the wire codec
			// encodes message fields, and unexported fields are package-private
			// plumbing (an *Enclave handle held by the host does not put the
			// enclave's internals on the wire).
			for i := 0; i < s.NumFields(); i++ {
				if !s.Field(i).Exported() {
					continue
				}
				if c := plaintextCarrier(s.Field(i).Type(), visited); c != "" {
					return t.Obj().Name() + "." + s.Field(i).Name() + " -> " + c
				}
			}
		}
		return plaintextCarrierNonStruct(t.Underlying(), visited)
	case *types.Pointer:
		return plaintextCarrier(t.Elem(), visited)
	case *types.Slice:
		return plaintextCarrier(t.Elem(), visited)
	case *types.Array:
		return plaintextCarrier(t.Elem(), visited)
	case *types.Map:
		if c := plaintextCarrier(t.Key(), visited); c != "" {
			return c
		}
		return plaintextCarrier(t.Elem(), visited)
	case *types.Chan:
		return plaintextCarrier(t.Elem(), visited)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if c := plaintextCarrier(t.Field(i).Type(), visited); c != "" {
				return t.Field(i).Name() + " -> " + c
			}
		}
	}
	return ""
}

// plaintextCarrierNonStruct handles named types whose underlying is a
// container (e.g. type Params map[string]Value).
func plaintextCarrierNonStruct(u types.Type, visited []*types.Named) string {
	switch u.(type) {
	case *types.Pointer, *types.Slice, *types.Array, *types.Map, *types.Chan:
		return plaintextCarrier(u, visited)
	}
	return ""
}

func isSQLTypesValue(n *types.Named) bool {
	return n.Obj().Name() == "Value" && analysis.PackagePathIs(n.Obj().Pkg(), "sqltypes")
}

func namedTypeName(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func typeString(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
