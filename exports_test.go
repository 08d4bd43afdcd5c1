package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that no
// non-test file names, yet stay. Keys are "dir.Name" or "dir.Type.Method",
// dir relative to the module root.
var exportAllowlist = map[string]string{
	"internal/quant.DequantizeApply": "the reference decode core's kernel-spec test holds the apply kernels to",
	"internal/codec.Deflate":         "core's TestDeflateMatchesFlateOnRealPlanes holds it to compress/flate on every real plane, those stored raw included",

	"internal/baselines/huffman.huffHeap.Less": "heap.Interface: container/heap calls it",
}

// exportDecl is one exported identifier declared in a non-test file under
// internal/: a package-level name (recv == "") or a method.
type exportDecl struct {
	dir, recv, name string
	pos             token.Position
}

func (d exportDecl) key() string {
	if d.recv == "" {
		return d.dir + "." + d.name
	}
	return d.dir + "." + d.recv + "." + d.name
}

// TestInternalExportsHaveProductionCallers keeps production code to what
// production reaches: every exported identifier declared under internal/
// must be named by some non-test file of this module, of benchmark/, of
// cmd/ or of examples/, unless exportAllowlist says why not. The check is
// by name: a package-level identifier counts as named when its package
// uses it bare or another package selects it through an import; a method
// counts as named when any non-test file selects that name on anything.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	type parsed struct {
		dir  string
		file *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsed{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []exportDecl
	bare := map[string]bool{}      // "dir.Name": a bare use inside dir
	qualified := map[string]bool{} // "dir.Name": pkg.Name from another package
	selected := map[string]bool{}  // Name: x.Name on anything not an import
	for _, pf := range files {
		skip := map[*ast.Ident]bool{}
		imports := map[string]string{} // local name -> directory
		for _, im := range pf.file.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			dir, ok := strings.CutPrefix(ip, "repro/")
			if !ok {
				continue
			}
			name := path.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		internal := strings.HasPrefix(pf.dir, "internal/")
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				skip[d.Name] = true
				recv := ""
				if d.Recv != nil {
					recv = recvType(d.Recv.List[0].Type, skip)
				}
				if internal && d.Name.IsExported() {
					decls = append(decls, exportDecl{pf.dir, recv, d.Name.Name, fset.Position(d.Pos())})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						skip[id] = true
						if internal && id.IsExported() {
							decls = append(decls, exportDecl{pf.dir, "", id.Name, fset.Position(id.Pos())})
						}
					}
				}
			}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				selected[n.Sel.Name] = true
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					bare[pf.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("found no exported identifier under internal/")
	}

	flagged := map[string]bool{}
	for _, d := range decls {
		used := selected[d.name]
		if d.recv == "" {
			k := d.dir + "." + d.name
			used = bare[k] || qualified[k]
		}
		if used {
			continue
		}
		flagged[d.key()] = true
		if _, ok := exportAllowlist[d.key()]; !ok {
			t.Errorf("%s: %s is exported, but only tests name it", d.pos, d.key())
		}
	}
	var stale []string
	for k, reason := range exportAllowlist {
		if !flagged[k] {
			stale = append(stale, k)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("allowlist entry %s is named by a non-test file, or no longer declared; drop it", k)
	}
}

// recvType returns the receiver's type name, marking its identifiers as
// declarations: a method's own receiver does not name its type.
func recvType(e ast.Expr, skip map[*ast.Ident]bool) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X, skip)
	case *ast.IndexExpr:
		return recvType(e.X, skip)
	case *ast.IndexListExpr:
		return recvType(e.X, skip)
	case *ast.Ident:
		skip[e] = true
		return e.Name
	}
	return ""
}

// publicAPIPath lists every exported identifier of the public packages,
// one "package kind name" a line, sorted.
const publicAPIPath = "testdata/public_api.txt"

// publicPackages are the module's importable API.
var publicPackages = []string{"ipcomp", "ipcomp/client"}

// publicAPI lists the exported identifiers that the non-test files of dir
// declare: package-level names, methods and the fields and interface
// methods of exported types, each as "dir kind name".
func publicAPI(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	add := func(kind, name string) { out = append(out, dir+" "+kind+" "+name) }
	for _, e := range ents {
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
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add("func", d.Name.Name)
				} else if recv := recvType(d.Recv.List[0].Type, map[*ast.Ident]bool{}); ast.IsExported(recv) {
					add("method", recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						add("type", s.Name.Name)
						var members *ast.FieldList
						kind := "field"
						switch ty := s.Type.(type) {
						case *ast.StructType:
							members = ty.Fields
						case *ast.InterfaceType:
							members, kind = ty.Methods, "method"
						}
						if members == nil {
							continue
						}
						for _, m := range members.List {
							for _, id := range m.Names {
								if id.IsExported() {
									add(kind, s.Name.Name+"."+id.Name)
								}
							}
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, id := range s.Names {
							if id.IsExported() {
								add(kind, id.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestPublicAPI pins the exported identifiers of the public packages to
// publicAPIPath, so that every addition to or removal from the API shows
// in the diff of the change that makes it. On a mismatch, -v prints the
// list to replace the file with.
func TestPublicAPI(t *testing.T) {
	var got []string
	for _, dir := range publicPackages {
		got = append(got, publicAPI(t, dir)...)
	}
	sort.Strings(got)
	raw, err := os.ReadFile(filepath.FromSlash(publicAPIPath))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w] = true
	}
	declared := map[string]bool{}
	for _, g := range got {
		declared[g] = true
		if !pinned[g] {
			t.Errorf("%s is exported, but %s does not list it", g, publicAPIPath)
		}
	}
	for _, w := range want {
		if !declared[w] {
			t.Errorf("%s lists %s, which is no longer exported", publicAPIPath, w)
		}
	}
	if t.Failed() {
		t.Logf("the public API as declared now:\n%s", strings.Join(got, "\n"))
	}
}
