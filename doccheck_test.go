package ftmrmpi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented enforces the godoc contract for the packages
// below (`go vet` has no doc-comment analyzer, so `make check` gets the
// guarantee through this test): every exported type, function, method,
// struct field, and const/var must carry a doc comment.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, pkg := range []struct{ dir, name string }{
		// The public MapReduce API surface (Spec, Handle, the phase/recovery
		// model): an undocumented symbol is a job author guessing at
		// fault-tolerance semantics.
		{"internal/core", "core"},
		// The primary debugging surface: an undocumented symbol is a consumer
		// guessing whether a duration is virtual or wall time.
		{"internal/trace", "trace"},
		// A decision-making surface: an undocumented category or field is a
		// consumer guessing what a share means.
		{"internal/trace/critpath", "critpath"},
		// Consumed by the instrumentation sites, both CLIs, and the health
		// gate: an undocumented symbol is a caller guessing whether a family
		// is per-rank or world-scoped.
		{"internal/metrics", "metrics"},
		// A wire format plus a concurrency contract (safe-point captures, the
		// watchdog's beacon protocol): an undocumented symbol is a consumer
		// guessing at the snapshot schema or at what may be called from which
		// goroutine.
		{"internal/introspect", "introspect"},
		// The record harness under both JSONL wire formats: an undocumented
		// symbol is a reader guessing which damage is fatal.
		{"internal/jsonl", "jsonl"},
		// The simulator core: its contract (total event order,
		// one-proc-at-a-time execution, park/wake semantics) is what every
		// determinism guarantee rests on.
		{"internal/vtime", "vtime"},
		// The API every workload and the core runtime program against:
		// matching semantics, ULFM error returns, and collective fault
		// behavior; an undocumented symbol is a caller guessing which errors
		// a failed peer produces.
		{"internal/mpi", "mpi"},
	} {
		t.Run(pkg.name, func(t *testing.T) {
			checkDocumented(t, pkg.dir, pkg.name)
		})
	}
}

// checkDocumented reports every undocumented exported symbol in the
// non-test files of package name in dir.
func checkDocumented(t *testing.T, dir, name string) {
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs[name]
	if !ok {
		t.Fatalf("package %s not found in %s", name, dir)
	}
	missing := func(what string, pos token.Pos) {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), what)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !receiverExported(d.Recv) {
					continue
				}
				if d.Doc == nil {
					missing("func "+d.Name.Name, d.Pos())
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						if d.Doc == nil && s.Doc == nil {
							missing("type "+s.Name.Name, s.Pos())
						}
						// Exported struct fields need their own comments.
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if id.IsExported() && fld.Doc == nil && fld.Comment == nil {
										missing("field "+s.Name.Name+"."+id.Name, id.Pos())
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if !id.IsExported() {
								continue
							}
							// A group doc, a per-spec doc, or a trailing
							// comment all count.
							if d.Doc == nil && s.Doc == nil && s.Comment == nil {
								missing(d.Tok.String()+" "+id.Name, id.Pos())
							}
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the godoc surface).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
