package ampsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported names of internal/ that may stay
// without a non-test use. dvbs2.NewTxChain is the transmitter as a task
// chain; ROADMAP item 10 decides whether the radio keeps it.
var testOnlyAllowed = map[string]bool{
	"dvbs2.NewTxChain": true,
}

// TestNoTestOnlyExports fails on every exported top-level func, type, var
// or const in internal/ that no non-test .go file of the repository uses
// outside its own declaration (a type's methods count as its declaration).
// A use from the declaring package is a bare identifier; a use from any
// other package, bench/ included, is a pkg.Name selector. Reference code
// that only tests call belongs in a _test.go file.
func TestNoTestOnlyExports(t *testing.T) {
	type file struct {
		pkg string // import path of the file's package
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path → package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("ampsched", filepath.ToSlash(filepath.Dir(p)))
		pkgName[pkg] = f.Name.Name
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]string{} // "pkg.Name" → "name.Name" as a reader spells it
	used := map[string]bool{}
	for _, fl := range files {
		internal := strings.HasPrefix(fl.pkg, "ampsched/internal/")
		imports := map[string]string{} // local name → import path
		for _, im := range fl.f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			if name, ok := pkgName[ip]; ok {
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = ip
			}
		}
		for _, decl := range fl.f.Decls {
			self := map[string]bool{} // names this declaration introduces
			method := false
			switch d := decl.(type) {
			case *ast.FuncDecl:
				method = d.Recv != nil
				if method {
					self[recvType(d.Recv.List[0].Type)] = true
				} else {
					self[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						self[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							self[n.Name] = true
						}
					}
				}
			}
			for name := range self {
				if internal && !method && ast.IsExported(name) {
					declared[fl.pkg+"."+name] = fl.f.Name.Name + "." + name
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						used[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					ast.Inspect(n.X, visit) // n.Sel is a field or method
					return false
				case *ast.Field:
					ast.Inspect(n.Type, visit) // n.Names are declarations
					return false
				case *ast.Ident:
					if !self[n.Name] {
						used[fl.pkg+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}

	unused := map[string]bool{}
	var bad []string
	for key, name := range declared {
		if !used[key] {
			unused[name] = true
			if !testOnlyAllowed[name] {
				bad = append(bad, name)
			}
		}
	}
	sort.Strings(bad)
	for _, name := range bad {
		t.Errorf("%s is exported but no non-test code uses it: delete it or move it into the tests", name)
	}
	for name := range testOnlyAllowed {
		if !unused[name] {
			t.Errorf("%s is allowlisted but is used or gone: drop it from testOnlyAllowed", name)
		}
	}
}

// recvType returns the base type name of a method receiver.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr: // a generic type's receiver, T[P]
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
