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
	fset, files := parseRepo(t)
	for _, p := range unusedExports(fset, files, surfaceAllow) {
		t.Error(p)
	}
}

// parseRepo parses every Go file of the repository, testdata and dot
// directories aside.
func parseRepo(t *testing.T) (*token.FileSet, []srcFile) {
	t.Helper()
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
	return fset, files
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

// parseSources parses in-memory sources keyed by path, for the checks'
// self-tests.
func parseSources(t *testing.T, srcs map[string]string) (*token.FileSet, []srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{path, f})
	}
	return fset, files
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
		fset, files := parseSources(t, srcs)
		got := unusedExports(fset, files, tc.allow)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// configAllow names the exported config fields under internal/ that may
// stay without a non-test setter, each with its reason.  A key names one
// field ("pkg.Type.Field") or every field of a struct ("pkg.Type").
var configAllow = map[string]string{
	"mpsim.Config.Trace":       "test oracle: the shard-count and serial-loop fingerprint tests hash the trace it records",
	"exp.CSConfig.Fingerprint": "adds a client allgather, so always on it would move Figure 10's goldens",
	"exp.Figure10ScaleConfig":  "BenchmarkFigure10Parallel sizes it until it is rebuilt on the paper's schedules",
}

// TestConfigFieldsHaveSetters fails on any exported field of an
// exported struct under internal/ whose name ends in Config or Options
// that no non-test file sets, unless configAllow names it: a knob only
// tests turn is a constant.  A field counts as set where it is a key of
// a composite literal of its own type, or where a variable's field of
// its name is assigned (v.Field = ...) — except inside a withDefaults
// method, which fills zero values rather than choosing them.
//
// Literals are matched by type name, assignments by field name alone:
// assigning a same-named field of another struct through a variable
// counts, so the check can miss a field; one set only through a longer
// chain (a.b.Field = ...) is reported, so it can also report one.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset, files := parseRepo(t)
	for _, p := range unsetConfigFields(fset, files, configAllow) {
		t.Error(p)
	}
}

// unsetConfigFields returns one problem per exported config field under
// internal/ that no non-test file sets and allow does not cover, as
// "file:line: pkg.Type.Field has no non-test setter", followed by one
// per allow entry that covers no such field.
func unsetConfigFields(fset *token.FileSet, files []srcFile, allow map[string]string) []string {
	type field struct {
		key, typ string // "pkg.Type.Field", "pkg.Type"
		pos      token.Pos
	}
	var fields []field
	byName := map[string][]string{} // field name -> its keys
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") || !strings.HasPrefix(sf.path, "internal/") {
			continue
		}
		pkg := sf.f.Name.Name
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec) // a GenDecl of types holds only TypeSpecs
				st, isStruct := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !isStruct || !ts.Name.IsExported() ||
					!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				typ := pkg + "." + name
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							key := typ + "." + n.Name
							fields = append(fields, field{key, typ, n.Pos()})
							byName[n.Name] = append(byName[n.Name], key)
						}
					}
				}
			}
		}
	}
	set := map[string]bool{}
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		pkg := sf.f.Name.Name
		for _, d := range sf.f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			defaults := isFunc && fd.Name.Name == "withDefaults"
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := ""
					switch tx := n.Type.(type) {
					case *ast.Ident:
						typ = pkg + "." + tx.Name
					case *ast.SelectorExpr:
						if x, ok := tx.X.(*ast.Ident); ok {
							typ = x.Name + "." + tx.Sel.Name
						}
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								set[typ+"."+k.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					if defaults {
						return true
					}
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if _, onVar := sel.X.(*ast.Ident); onVar {
							for _, key := range byName[sel.Sel.Name] {
								set[key] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	var problems, stale []string
	hit := map[string]bool{}
	for _, f := range fields {
		if set[f.key] {
			continue
		}
		if _, ok := allow[f.key]; ok {
			hit[f.key] = true
			continue
		}
		if _, ok := allow[f.typ]; ok {
			hit[f.typ] = true
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s has no non-test setter", fset.Position(f.pos), f.key))
	}
	for key := range allow {
		if !hit[key] {
			stale = append(stale, fmt.Sprintf("allow-list entry %s names nothing unset", key))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// TestConfigFieldsSelfCheck runs the config-field check on in-memory
// sources, so a check that silently passes everything fails here.
func TestConfigFieldsSelfCheck(t *testing.T) {
	lib := `package x

type Options struct {
	Set       int
	Assigned  int
	Planted   int
	Defaulted int
	hidden    int
}

type Plain struct{ Untouched int }

func (o *Options) withDefaults() Options {
	out := *o
	out.Defaulted = 1
	return out
}
`
	srcs := map[string]string{
		"internal/x/x.go":      lib,
		"internal/x/x_test.go": "package x\n\nvar _ = Options{Planted: 1, Defaulted: 2}\n",
		"cmd/y/main.go": `package main

import "x"

func main() {
	o := x.Options{Set: 1}
	o.Assigned = 2
	var w struct{ stats struct{ Planted int } }
	w.stats.Planted = 3
}
`,
	}
	fset, files := parseSources(t, srcs)
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"a field only a test sets, or only withDefaults, is reported with its position", nil, []string{
			"internal/x/x.go:6:2: x.Options.Planted has no non-test setter",
			"internal/x/x.go:7:2: x.Options.Defaulted has no non-test setter",
		}},
		{"an allow-listed field is not, nor one of an allow-listed struct",
			map[string]string{"x.Options.Planted": "reason", "x.Options": "reason"}, nil},
		{"a stale allow-list entry fails",
			map[string]string{"x.Options.Planted": "reason", "x.Options.Defaulted": "reason", "x.Options.Set": "reason"},
			[]string{"allow-list entry x.Options.Set names nothing unset"}},
	} {
		got := unsetConfigFields(fset, files, tc.allow)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
