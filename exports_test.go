package ampsched_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unreadAllowed lists the declarations TestNoTestOnlyExports may find, each
// with the ROADMAP item that deletes it or the oracle test that reads it. An
// entry whose declaration is read or gone fails the test too.
var unreadAllowed = map[string]string{
	"dvbs2.NewTxChain":                  "item 10: the radio runs the transmitter as tasks, or TxChain goes",
	"dvbs2.(*TxChain).Tasks":            "item 10",
	"dvbs2.TxChain.SentFrames":          "item 10",
	"dvbs2.TxChain.SentBits":            "item 10",
	"dvbs2.FramePayload.LDPCIters":      "TestReceiverOutputDigest hashes it",
	"dvbs2.FramePayload.BCHCorrected":   "TestReceiverOutputDigest hashes it",
	"dvbs2.BCH.gen":                     "referenceBCHParity reads it",
	"desim.Result.Makespan":             "item 6(ii)",
	"desim.Result.Frames":               "item 6(ii)",
	"desim.Config.Sample":               "item 1(g)",
	"desim.SampleConfig.Metrics":        "item 1(g)",
	"flight.Event.Code":                 "item 1(g)",
	"flight.Event.Stage":                "item 1(g)",
	"flight.Event.A":                    "item 1(g)",
	"flight.Event.B":                    "item 1(g)",
	"streampu.Options.Flight":           "item 1(g)",
	"strategy.Options.Flight":           "item 1(g)",
	"streampu.Sampler.Flight":           "item 1(g)",
	"herad.Options.Workers":             "item 3",
	"herad.Options.ForceGeneral":        "item 3",
	"herad.Options.Epsilon":             "item 3",
	"herad.(*Planner).Period":           "item 3",
	"strategy.Options.Workers":          "item 3",
	"strategy.ReplanStats.RowsRefilled": "item 3",
	"strategy.ReplanStats.RowsTotal":    "item 3",
}

// TestNoTestOnlyExports type-checks the non-test files of this module and of
// bench/, which counts as a reader, with go/types. It reads two file sets,
// linux/amd64 and linux/arm64, and takes the union of their uses, so a
// declaration whose only reader one of them leaves out (kernels_other.go on
// amd64) counts as used. By object, not by name, it fails on
//   - an exported top-level name in internal/ that no code outside its own
//     declaration uses (a type's methods count as its declaration);
//   - an exported method in internal/ that is neither selected on its type
//     nor declared by an interface that the type or its pointer implements:
//     one the code spells or evaluates to, or fmt.Stringer, json.Marshaler
//     or json.Unmarshaler, which the standard library finds by a type
//     assertion on an any;
//   - a struct field of the module that nothing reads: an assignment, ++,
//     -- or a composite-literal key only writes it, and x.F = y.F, which
//     copies it into the same field of another value, reads it neither.
//     json-tagged fields, _ pads and the fields of a struct that is a map
//     key or compared with == are exempt: reflection or the comparison
//     reads them.
//
// Reference code that only tests call belongs in a _test.go file, and a
// value only tests read belongs to the tests.
func TestNoTestOnlyExports(t *testing.T) {
	// The source importer reads build.Default: set it to linux so that the
	// standard library matches the file sets on any host.
	host := build.Default
	t.Cleanup(func() { build.Default = host })
	build.Default.GOOS, build.Default.GOARCH, build.Default.CgoEnabled = "linux", "amd64", false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	parsed := map[string]*ast.File{}
	found := map[token.Pos]string{} // declaration → its name, over every file set
	used := map[token.Pos]bool{}
	exempt := map[token.Pos]bool{} // fields read by comparison or reflection
	for _, arch := range []string{"amd64", "arm64"} {
		l := &loader{fset: fset, std: std, parsed: parsed, dirs: map[string]string{}, pkgs: map[string]*types.Package{}}
		l.ctxt = build.Default
		l.ctxt.GOARCH = arch
		l.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		for _, mod := range []struct{ dir, path string }{{".", "ampsched"}, {"bench", "ampsched/bench"}} {
			if err := l.scan(mod.dir, mod.path); err != nil {
				t.Fatal(err)
			}
		}
		for p := range l.dirs {
			if _, err := l.Import(p); err != nil {
				t.Fatalf("linux/%s: %v", arch, err)
			}
		}
		ifaces, err := l.interfaces()
		if err != nil {
			t.Fatal(err)
		}
		u := usage{info: l.info, read: used, exempt: exempt}
		for _, f := range l.files {
			u.file(f)
		}
		internal := map[string]*types.Package{}
		for p, pkg := range l.pkgs {
			if !strings.HasPrefix(p, "ampsched/bench") {
				declared(pkg, found)
			}
			if strings.HasPrefix(p, "ampsched/internal/") {
				internal[p] = pkg
			}
		}
		u.satisfy(internal, ifaces)
	}
	for pos := range exempt {
		delete(found, pos)
	}

	bad := []string{}
	unread := map[string]bool{}
	for pos, name := range found {
		if used[pos] {
			continue
		}
		unread[name] = true
		if _, ok := unreadAllowed[name]; !ok {
			bad = append(bad, name+" ("+fset.Position(pos).String()+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: only tests use it, or nothing reads it: delete it or move it into the tests", b)
	}
	for name := range unreadAllowed {
		if !unread[name] {
			t.Errorf("%s is allowlisted but is used or gone: drop it from unreadAllowed", name)
		}
	}
}

// A loader type-checks the non-test files of this module and bench/ for one
// GOOS/GOARCH. The standard library comes from source, shared by every
// loader; a file is parsed once, so a declaration has one token.Pos in every
// file set that holds it.
type loader struct {
	fset   *token.FileSet
	ctxt   build.Context
	std    types.Importer
	parsed map[string]*ast.File
	dirs   map[string]string // import path → directory
	pkgs   map[string]*types.Package
	files  []*ast.File
	info   *types.Info
}

// scan records the package directories under root, a module at path.
func (l *loader) scan(root, modPath string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if p != root && (base == "testdata" || base == "bench" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		l.dirs[path.Join(modPath, filepath.ToSlash(rel))] = p
		return nil
	})
}

func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		name = filepath.Join(dir, name)
		f := l.parsed[name]
		if f == nil {
			if f, err = parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[name] = f
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctxt.GOARCH)}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// interfaces returns every interface with methods that the checked files
// spell or evaluate to, and the three the standard library asserts on a
// value it holds as any: fmt.Stringer, json.Marshaler and json.Unmarshaler.
func (l *loader) interfaces() (map[*types.Interface]bool, error) {
	seen := map[*types.Interface]bool{}
	for _, tv := range l.info.Types {
		if i, ok := tv.Type.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
			seen[i] = true
		}
	}
	for _, n := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}} {
		pkg, err := l.std.Import(n.pkg)
		if err != nil {
			return nil, err
		}
		seen[pkg.Scope().Lookup(n.name).Type().Underlying().(*types.Interface)] = true
	}
	return seen, nil
}

// usage collects, over the files of one file set, the declarations that are
// used or read (read) and the fields that comparison or reflection reads
// (exempt).
type usage struct {
	info   *types.Info
	read   map[token.Pos]bool
	exempt map[token.Pos]bool
}

func (u *usage) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	u.read[obj.Pos()] = true
}

// file records every use in f. A use inside the top-level declaration that
// declares the object (for a type, its methods too) does not count, and
// neither does a field selector that an assignment or ++/-- writes, nor the
// right side of x.F = y.F.
func (u *usage) file(f *ast.File) {
	written := map[*ast.SelectorExpr]bool{} // marked before Inspect reaches them
	write := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[s] = true
		}
	}
	for _, decl := range f.Decls {
		own := map[types.Object]bool{}
		switch d := decl.(type) {
		case *ast.FuncDecl:
			own[u.info.Defs[d.Name]] = true
			if d.Recv != nil {
				recv := u.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				own[recv.(*types.Named).Obj()] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					own[u.info.Defs[s.Name]] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						own[u.info.Defs[id]] = true
					}
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, e := range n.Lhs {
					write(e)
					// x.F = y.F copies F into the same field of another
					// value, which reads F no more than the write does.
					if f := u.field(e); f != nil && n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && u.field(n.Rhs[i]) == f {
						write(n.Rhs[i])
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.Ident:
				if obj := u.info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && !own[obj] {
					u.use(obj)
				}
			case *ast.SelectorExpr:
				if sel := u.info.Selections[n]; sel != nil {
					u.path(sel.Recv(), sel.Index())
					if !own[sel.Obj()] && (sel.Kind() != types.FieldVal || !written[n]) {
						u.use(sel.Obj())
					}
				}
			case *ast.StructType:
				u.tags(n)
			case *ast.MapType:
				u.compared(u.info.TypeOf(n.Key))
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.compared(u.info.TypeOf(n.X))
				}
			}
			return true
		})
	}
}

// field returns the struct field that e selects, or nil.
func (u *usage) field(e ast.Expr) types.Object {
	if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if sel := u.info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	}
	return nil
}

// path reads the embedded fields a promoted selection passes through.
func (u *usage) path(recv types.Type, index []int) {
	for _, i := range index[:len(index)-1] {
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		s, ok := recv.Underlying().(*types.Struct)
		if !ok {
			return
		}
		u.use(s.Field(i))
		recv = s.Field(i).Type()
	}
}

// compared exempts the fields of a struct that == compares or a map hashes.
func (u *usage) compared(t types.Type) {
	if s, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < s.NumFields(); i++ {
			u.exempt[s.Field(i).Origin().Pos()] = true
		}
	}
}

// tags exempts the json-tagged fields and _ pads of a struct type.
func (u *usage) tags(s *ast.StructType) {
	for _, f := range s.Fields.List {
		tagged := false
		if f.Tag != nil {
			_, tagged = reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Lookup("json")
		}
		for _, id := range f.Names {
			if tagged || id.Name == "_" {
				u.exempt[id.Pos()] = true
			}
		}
	}
}

// satisfy uses, for every type of pkgs, the methods by which it or its
// pointer implements one of ifaces.
func (u *usage) satisfy(pkgs map[string]*types.Package, ifaces map[*types.Interface]bool) {
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				for iface := range ifaces {
					if !types.Implements(t, iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						m := iface.Method(i)
						obj, index, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
						u.path(t, index)
						u.use(obj)
					}
				}
			}
		}
	}
}

// declared names the declarations of pkg that the test checks.
func declared(pkg *types.Package, found map[token.Pos]string) {
	internal := strings.HasPrefix(pkg.Path(), "ampsched/internal/")
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if internal && obj.Exported() {
			found[obj.Pos()] = pkg.Name() + "." + name
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; internal && i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				recv := name
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + name + ")"
				}
				found[m.Pos()] = pkg.Name() + "." + recv + "." + m.Name()
			}
		}
		if s, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				found[s.Field(i).Pos()] = pkg.Name() + "." + name + "." + s.Field(i).Name()
			}
		}
	}
}
