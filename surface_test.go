package metachaos_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the exported identifiers under internal/ that may
// stay without a non-test caller, each with its reason.  Keep it short:
// an entry is a decision, not a parking place.
var surfaceAllow = map[string]string{
	"bufpool.Pool.LiveSegments": "leak assertion: tests check that a finished run hands every segment back",
	"bufpool.Pool.LivePayloads": "leak assertion: tests check that a finished run releases every payload",
	"core.Byte":                 "the fifth predeclared element type; the dtype sweeps move every kind",
	"exp.Figure10Scale":         "BenchmarkFigure10Parallel's workload until it is rebuilt on the paper's schedules",
	"gidx.Section.Contains":     "test oracle for section enumeration and intersection",
	"mpsim.Trace.Timeline":      "test oracle: the serial-loop and shard-count fingerprints hash it",
}

// TestExportedSurfaceHasCallers fails on any exported top-level func,
// method, type, var or const declared in a non-test file under
// internal/ whose name no non-test file of the repository (bench/,
// cmd/, compat/, examples/ and the root package included) mentions,
// unless surfaceAllow names it.  An identifier only tests reach is
// either deleted or allow-listed with a reason; an allow-listed one that
// no test mentions either is dead, and its entry fails as stale.
//
// The check is by name, not by type: a test-only method that shares its
// name with a used identifier anywhere in the tree is not caught, but a
// name that really is used is never reported.  Methods that satisfy a
// standard-library interface by name (sort.Interface, heap.Interface,
// error, fmt.Stringer, errors.Unwrap) are skipped.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(path), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range unusedExports(fset, files, surfaceAllow) {
		t.Error(p)
	}
}

// srcFile is one parsed file and its slash-separated path from the
// repository root.
type srcFile struct {
	path string
	f    *ast.File
}

// stdlibMethods are method names a type implements for a
// standard-library interface, so callers reach them without naming them.
var stdlibMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "Unwrap": true, "String": true,
}

// unusedExports returns one problem per exported declaration under
// internal/ that no non-test file mentions and allow does not name, as
// "file:line: pkg.Name ..." or "file:line: pkg.Recv.Name ...", followed
// by one per allow entry that names no such declaration or one that no
// test file mentions either.
func unusedExports(fset *token.FileSet, files []srcFile, allow map[string]string) []string {
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	used, tested := map[string]bool{}, map[string]bool{}
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			ast.Inspect(sf.f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					tested[id.Name] = true
				}
				return true
			})
			continue
		}
		surface := strings.HasPrefix(sf.path, "internal/")
		pkg := sf.f.Name.Name
		add := func(id *ast.Ident, recv string) {
			declared[id] = true
			if !surface || !id.IsExported() {
				return
			}
			key := pkg + "." + id.Name
			if recv != "" {
				if stdlibMethods[id.Name] {
					return
				}
				key = pkg + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key, id.Pos()})
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, recvName(d))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "")
						}
					}
				}
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var problems, stale []string
	hit := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if used[name] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			hit[d.key] = true
			if !tested[name] {
				stale = append(stale, fmt.Sprintf("allow-list entry %s names code no file mentions, test files included", d.key))
			}
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s has no non-test caller", fset.Position(d.pos), d.key))
	}
	for key := range allow {
		if !hit[key] {
			stale = append(stale, fmt.Sprintf("allow-list entry %s names nothing unused", key))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// recvName is the receiver's type name of a method, or "" for a func.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestUnusedExportsSelfCheck runs the surface check on in-memory
// sources, so a check that silently passes everything fails here.
func TestUnusedExportsSelfCheck(t *testing.T) {
	lib := `package x

func Used() {}

func Planted() {}

type h []int

func (h) Len() int           { return 0 }
func (h) Less(i, j int) bool { return false }
func (h) Swap(i, j int)      {}
`
	srcs := map[string]string{
		"internal/x/x_test.go": "package x\n\nfunc plant() { Planted() }\n",
		"cmd/y/main.go":        "package main\n\nimport \"x\"\n\nfunc main() { x.Used() }\n",
	}
	for _, tc := range []struct {
		name  string
		extra string // appended to lib
		allow map[string]string
		want  []string
	}{
		{"a func only a test calls is reported with its position", "", nil,
			[]string{"internal/x/x.go:5:6: x.Planted has no non-test caller"}},
		{"an allow-listed func is not", "", map[string]string{"x.Planted": "reason"}, nil},
		{"a stale allow-list entry fails", "", map[string]string{"x.Planted": "reason", "x.Used": "reason"},
			[]string{"allow-list entry x.Used names nothing unused"}},
		{"an allow-listed func no test mentions either fails as stale", "\nfunc Dead() {}\n",
			map[string]string{"x.Planted": "reason", "x.Dead": "reason"},
			[]string{"allow-list entry x.Dead names code no file mentions, test files included"}},
	} {
		srcs["internal/x/x.go"] = lib + tc.extra
		fset := token.NewFileSet()
		var files []srcFile
		for path, src := range srcs {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, srcFile{path, f})
		}
		got := unusedExports(fset, files, tc.allow)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
