package metachaos_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceAllow names the exported identifiers under internal/ that may
// stay without a non-test caller, each with its reason.  Keep it short:
// an entry is a decision, not a parking place, and its reason names the
// tests that rely on it.
var surfaceAllow = map[string]string{
	"bufpool.Pool.LiveSegments": "leak assertion: bufpool's checkNoLeaks, core's TestMovePlaneDrains and TestDroppedSchedulesDrain, and mpsim's TestAlltoall and TestSerialLoopFingerprints check that a run hands every segment back",
	"bufpool.Pool.LivePayloads": "leak assertion: the same tests as LiveSegments check that a run releases every payload",
	"core.Byte":                 "the fifth predeclared element type: ckpt's TestSaveRestoreAllKinds and crosstest's TestChaosDtypeSweep move every kind",
	"core.Schedule.Elem":        "test oracle: crosstest's dtype sweeps check that each schedule carries its element type, TestPublicAPIScheduleIntrospection and TestMethodStringAndAccessors its width",
	"gidx.Section.Contains":     "test oracle: gidx's TestSectionContains, TestSectionForEachOrderMatchesPointAt and TestQuickSectionEnumeration check enumeration against it",
	"mpsim.Trace.Timeline":      "test oracle: mpsim's TestSerialLoopFingerprints and shard-count tests, and faultsim's shard tests, hash it",
}

// configAllow names the exported config fields under internal/ that may
// stay without a non-test setter, each with its reason.  A key names one
// field ("pkg.Type.Field") or every field of a struct ("pkg.Type").
var configAllow = map[string]string{
	"mpsim.Config.Trace":       "test oracle: the tests that hash Trace.Timeline (see surfaceAllow) turn it on",
	"exp.CSConfig.Fingerprint": "adds a client allgather, so always on it would move Figure 10's goldens",
}

// fieldAllow names the exported fields under internal/ that may stay
// without a non-test read, each with its reason naming the tests that
// rely on it.
var fieldAllow = map[string]string{
	"exp.CSBreakdown.ResultHash": "test oracle: exp's TestShardedDeterminismSweep and TestChaosFigure10Workload and BenchmarkFigure10Parallel compare it; CSConfig.Fingerprint (configAllow) fills it",
	"mpsim.Stats.Trace":          "test oracle: the tests that hash Trace.Timeline (see surfaceAllow) read it",
}

// TestExportedSurfaceHasCallers fails on any exported top-level
// declaration or exported method in a non-test file under internal/
// that no non-test code of the repository (bench/ included) resolves to,
// unless surfaceAllow names it; an allow-listed one that no test file
// names either is dead, and its entry fails as stale.  Uses resolve to
// objects (go/types), so a test-only method is caught even where its
// name is used elsewhere.  A method also counts as used when its type
// implements an interface whose method of its name non-test code calls,
// or the standard library does (runtimeCalls).
func TestExportedSurfaceHasCallers(t *testing.T) {
	for _, p := range unusedExports(loadRepo(t), surfaceAllow) {
		t.Error(p)
	}
}

// TestConfigFieldsHaveSetters fails on any exported field of an
// exported struct under internal/ whose name ends in Config or Options
// that no non-test code sets, unless configAllow names it: a knob only
// tests turn is a constant.  A field counts as set where a composite
// literal's key or an assignment's target resolves to it, outside
// withDefaults methods, which fill zero values rather than choose them.
func TestConfigFieldsHaveSetters(t *testing.T) {
	for _, p := range unsetConfigFields(loadRepo(t), configAllow) {
		t.Error(p)
	}
}

// TestExportedFieldsAreRead fails on any exported field of an exported
// struct under internal/ that no non-test code reads, unless fieldAllow
// names it: a field only tests read is a test's oracle, and one nobody
// reads is dead.  A selector that is only an assignment's target, an
// increment's operand or a composite literal's key writes the field
// rather than reads it; a field with a struct tag counts as read, since
// reflection reads it.
func TestExportedFieldsAreRead(t *testing.T) {
	for _, p := range unreadFields(loadRepo(t), fieldAllow) {
		t.Error(p)
	}
}

// checked is a type-checked source tree: its non-test packages (in path
// order and by import path) and the names its test files mention.
type checked struct {
	fset   *token.FileSet
	pkgs   []*srcPkg
	byPath map[string]*srcPkg
	tested map[string]bool
}

// srcPkg is one directory's non-test files and their type information.
type srcPkg struct {
	path  string // "metachaos/<dir>"
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// std resolves standard-library imports from the export data in the
// local build cache (go list -export), shared by every load.
var std = importer.ForCompiler(token.NewFileSet(), "gc", nil)

// loadRepo type-checks the repository once per test binary, bench/
// included, testdata and dot directories aside.
func loadRepo(t *testing.T) *checked {
	t.Helper()
	c, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var repo = sync.OnceValues(func() (*checked, error) {
	srcs := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
		case strings.HasSuffix(p, ".go"):
			if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
				return err
			}
			srcs[filepath.ToSlash(p)] = ""
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return load(srcs)
})

// load parses the files named by srcs (a source of "" is read from
// disk), and runtimeCalls, in path order, and type-checks each
// directory's non-test files as the package "metachaos/<dir>", which is
// also the import path of every package of bench/'s module.
func load(srcs map[string]string) (*checked, error) {
	c := &checked{fset: token.NewFileSet(), byPath: map[string]*srcPkg{}, tested: map[string]bool{}}
	srcs[".runtimecalls/calls.go"] = runtimeCalls
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		var src any
		if srcs[p] != "" {
			src = srcs[p]
		}
		f, err := parser.ParseFile(c.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(p, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					c.tested[id.Name] = true
				}
				return true
			})
			continue
		}
		ip := path.Join("metachaos", path.Dir(p))
		if c.byPath[ip] == nil {
			c.byPath[ip] = &srcPkg{path: ip}
			c.pkgs = append(c.pkgs, c.byPath[ip])
		}
		c.byPath[ip].files = append(c.byPath[ip].files, f)
	}
	for _, p := range c.pkgs {
		if _, err := c.Import(p.path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Import type-checks a package of the tree on first use, and leaves any
// other to std.
func (c *checked) Import(ip string) (*types.Package, error) {
	p := c.byPath[ip]
	if p == nil {
		return std.Import(ip)
	}
	if p.types == nil {
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}} // a selector's Sel included
		var err error
		if p.types, err = (&types.Config{Importer: c}).Check(ip, c.fset, p.files, p.info); err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

// runtimeCalls stands for the standard library's calls into this
// repository's types: errors, fmt, sort and container/heap reach a
// method that implements one of these without the repository naming it.
const runtimeCalls = `package runtimecalls

import ("container/heap"; "fmt")

func _(e error, w interface{ Unwrap() error }, s fmt.Stringer, h heap.Interface) {
	_, _, _, _, _ = e.Error(), w.Unwrap(), s.String(), h.Len(), h.Less(0, 0)
	h.Swap(0, 0); h.Push(h.Pop())
}
`

// origin maps an instantiated generic func, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unusedExports returns one problem per exported declaration under
// internal/ that no non-test code uses and allow does not name, then
// one per allow entry that names none, or one no test file names.
func unusedExports(c *checked, allow map[string]string) []string {
	used := map[types.Object]bool{}
	var called []*types.Func // interface methods non-test code calls
	mark := func(obj types.Object) {
		obj = origin(obj)
		if f, ok := obj.(*types.Func); ok && !used[f] {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, f)
			}
		}
		used[obj] = true
	}
	for _, p := range c.pkgs {
		for _, obj := range p.info.Uses {
			mark(obj)
		}
	}
	reached := func(m *types.Func, named *types.Named) bool {
		if used[m] {
			return true
		}
		for _, im := range called {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
		return false
	}
	type decl struct {
		key string
		obj types.Object
	}
	var unused []decl
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.path, "metachaos/internal/") {
			continue
		}
		pkg := p.types.Name()
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused = append(unused, decl{pkg + "." + name, obj})
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !reached(m, named) {
					unused = append(unused, decl{pkg + "." + name + "." + m.Name(), m})
				}
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].obj.Pos() < unused[j].obj.Pos() })
	var problems, stale []string
	hit := map[string]bool{}
	for _, d := range unused {
		if _, ok := allow[d.key]; ok {
			hit[d.key] = true
			if !c.tested[d.obj.Name()] {
				stale = append(stale, fmt.Sprintf("allow-list entry %s names code no file mentions, test files included", d.key))
			}
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s has no non-test caller", c.fset.Position(d.obj.Pos()), d.key))
	}
	return withStale(problems, stale, allow, hit, "unused")
}

// unsetConfigFields returns one problem per exported config field under
// internal/ that no non-test code sets and allow does not cover, then
// one per allow entry that covers none.
func unsetConfigFields(c *checked, allow map[string]string) []string {
	set := map[types.Object]bool{}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return n.Name.Name != "withDefaults"
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						set[origin(p.info.Uses[k])] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set[origin(p.info.Uses[sel.Sel])] = true
						}
					}
				}
				return true
			})
		}
	}
	var problems []string
	hit := map[string]bool{}
	internalStructs(c, func(typ string, st *types.Struct) {
		if !strings.HasSuffix(typ, "Config") && !strings.HasSuffix(typ, "Options") {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			key := typ + "." + f.Name()
			switch {
			case !f.Exported() || f.Embedded() || set[f]:
			case allow[key] != "":
				hit[key] = true
			case allow[typ] != "":
				hit[typ] = true
			default:
				problems = append(problems, fmt.Sprintf("%s: %s has no non-test setter", c.fset.Position(f.Pos()), key))
			}
		}
	})
	return withStale(problems, nil, allow, hit, "unset")
}

// internalStructs calls f with the "pkg.Type" key of every exported
// struct type declared under internal/.
func internalStructs(c *checked, f func(typ string, st *types.Struct)) {
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.path, "metachaos/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			st, isStruct := scope.Lookup(name).Type().Underlying().(*types.Struct)
			if _, isType := scope.Lookup(name).(*types.TypeName); isType && isStruct && token.IsExported(name) {
				f(p.types.Name()+"."+name, st)
			}
		}
	}
}

// unreadFields returns one problem per exported field of an exported
// struct under internal/ that no non-test code reads and allow does not
// name, then one per allow entry that names none.
func unreadFields(c *checked, allow map[string]string) []string {
	read := map[types.Object]bool{}
	for _, p := range c.pkgs {
		writes := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				writes[sel.Sel] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						writes[k] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[origin(v)] = true
			}
		}
	}
	var problems []string
	hit := map[string]bool{}
	internalStructs(c, func(typ string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			key := typ + "." + f.Name()
			switch {
			case !f.Exported() || f.Embedded() || read[f] || st.Tag(i) != "":
			case allow[key] != "":
				hit[key] = true
			default:
				problems = append(problems, fmt.Sprintf("%s: %s is never read by non-test code", c.fset.Position(f.Pos()), key))
			}
		}
	})
	return withStale(problems, nil, allow, hit, "unread")
}

// withStale appends to problems the stale lines, plus one per allow
// entry that hit does not hold, in key order.
func withStale(problems, stale []string, allow map[string]string, hit map[string]bool, what string) []string {
	for key := range allow {
		if !hit[key] {
			stale = append(stale, fmt.Sprintf("allow-list entry %s names nothing %s", key, what))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// selfCheckCase is one row of a surface-check self-test: the files it
// adds to selfCheckBase, the allow-list it passes and the problems the
// check must report.
type selfCheckCase struct {
	name  string
	files map[string]string
	allow map[string]string
	want  []string
}

// selfCheckBase is the in-memory repo every self-check row starts from.
var selfCheckBase = map[string]string{
	"internal/x/x.go": `package x

func Used()    {}
func Planted() {}

type h []int

func (h) Len() int           { return 0 }
func (h) Less(i, j int) bool { return false }
func (h) Swap(i, j int)      {}

type Options struct{ Set, Assigned, Planted, Defaulted, hidden int }

type Plain struct{ Untouched int }

func (o *Options) withDefaults() { o.Defaulted = 1 }
`,
	"internal/x/x_test.go": "package x\n\nvar _ = Options{Planted: 1, Defaulted: 2}\n\nfunc plant() { Planted() }\n",
	"cmd/y/main.go": `package main

import "metachaos/internal/x"

var _ x.Plain

func main() {
	x.Used()
	o := x.Options{Set: 1}
	o.Assigned = 2
	var w struct{ stats struct{ Planted int } }
	w.stats.Planted = 3
}
`,
}

// runSelfCheck runs check on selfCheckBase plus each row's files, so a
// check that silently passes everything, or matches by name where it
// should resolve by object, fails here.
func runSelfCheck(t *testing.T, check func(*checked, map[string]string) []string, cases []selfCheckCase) {
	t.Helper()
	for _, tc := range cases {
		srcs := maps.Clone(selfCheckBase)
		maps.Copy(srcs, tc.files)
		c, err := load(srcs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := check(c, tc.allow); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestUnusedExportsSelfCheck runs the surface check on in-memory
// packages.
func TestUnusedExportsSelfCheck(t *testing.T) {
	planted := map[string]string{"x.Planted": "reason"}
	runSelfCheck(t, unusedExports, []selfCheckCase{
		{"a func only a test calls is reported with its position", nil, nil,
			[]string{"internal/x/x.go:4:6: x.Planted has no non-test caller"}},
		{"an allow-listed func is not", nil, planted, nil},
		{"a stale allow-list entry fails", nil, map[string]string{"x.Planted": "reason", "x.Used": "reason"},
			[]string{"allow-list entry x.Used names nothing unused"}},
		{"an allow-listed func no test mentions either fails as stale",
			map[string]string{"internal/x/dead.go": "package x\n\nfunc Dead() {}\n"},
			map[string]string{"x.Planted": "reason", "x.Dead": "reason"},
			[]string{"allow-list entry x.Dead names code no file mentions, test files included"}},
		{"a test-only method is reported though another package's method of its name is used",
			map[string]string{
				"internal/x/t.go": "package x\n\ntype T struct{}\n\nfunc (T) Close() {}\n",
				"internal/z/z.go": "package z\n\ntype C struct{}\n\nfunc (C) Close() {}\n",
				"cmd/y/c.go":      "package main\n\nimport (\n\t\"metachaos/internal/x\"\n\t\"metachaos/internal/z\"\n)\n\nvar _ x.T\n\nfunc init() { z.C{}.Close() }\n",
			}, planted,
			[]string{"internal/x/t.go:5:10: x.T.Close has no non-test caller"}},
		{"a method reached only through a repo interface its type implements is not",
			map[string]string{
				"internal/x/shape.go": "package x\n\ntype Shape interface{ Area() int }\n\ntype Sq struct{}\n\nfunc (Sq) Area() int { return 1 }\n\nfunc Total(s Shape) int { return s.Area() }\n",
				"cmd/y/shape.go":      "package main\n\nimport \"metachaos/internal/x\"\n\nvar _ = x.Total(x.Sq{})\n",
			}, planted, nil},
		{"a test-only Addr on a type that is no net.Listener is reported",
			map[string]string{
				"internal/x/srv.go": "package x\n\ntype Srv struct{}\n\nfunc (Srv) Addr() string { return \"\" }\n",
				"cmd/y/ln.go":       "package main\n\nimport (\n\t\"net\"\n\n\t\"metachaos/internal/x\"\n)\n\nvar _ x.Srv\n\nfunc addr(ln net.Listener) string { return ln.Addr().String() }\n",
			}, planted,
			[]string{"internal/x/srv.go:5:12: x.Srv.Addr has no non-test caller"}},
	})
}

// TestConfigFieldsSelfCheck runs the config-field check on in-memory
// packages.
func TestConfigFieldsSelfCheck(t *testing.T) {
	runSelfCheck(t, unsetConfigFields, []selfCheckCase{
		{"a field only a test sets, or only withDefaults, is reported with its position", nil, nil, []string{
			"internal/x/x.go:12:37: x.Options.Planted has no non-test setter",
			"internal/x/x.go:12:46: x.Options.Defaulted has no non-test setter",
		}},
		{"an allow-listed field is not, nor one of an allow-listed struct", nil,
			map[string]string{"x.Options.Planted": "reason", "x.Options": "reason"}, nil},
		{"a stale config allow-list entry fails", nil,
			map[string]string{"x.Options.Planted": "reason", "x.Options.Defaulted": "reason", "x.Options.Set": "reason"},
			[]string{"allow-list entry x.Options.Set names nothing unset"}},
		{"a field only a test assigns is reported though non-test code assigns another of its name",
			map[string]string{
				"internal/x/link.go":      "package x\n\ntype LinkConfig struct{ Delay int }\n",
				"internal/x/link_test.go": "package x\n\nfunc init() {\n\tvar c LinkConfig\n\tc.Delay = 1\n}\n",
				"cmd/y/link.go":           "package main\n\nimport \"metachaos/internal/x\"\n\nvar _ x.LinkConfig\n\nfunc init() {\n\tvar s struct{ Delay int }\n\ts.Delay = 2\n}\n",
			}, map[string]string{"x.Options": "reason"},
			[]string{"internal/x/link.go:3:25: x.LinkConfig.Delay has no non-test setter"}},
	})
}

// TestFieldReadsSelfCheck runs the field-read check on in-memory
// packages.  selfCheckBase's exported fields are only ever written, so
// every row but the one that shows it allow-lists them.
func TestFieldReadsSelfCheck(t *testing.T) {
	written := map[string]string{
		"x.Options.Set": "reason", "x.Options.Assigned": "reason", "x.Options.Planted": "reason",
		"x.Options.Defaulted": "reason", "x.Plain.Untouched": "reason",
	}
	with := func(keys ...string) map[string]string {
		m := maps.Clone(written)
		for _, k := range keys {
			m[k] = "reason"
		}
		return m
	}
	rd := map[string]string{
		"internal/x/rd.go":      "package x\n\ntype Rd struct {\n\tByTest, ByPtr int\n\tTagged  int `json:\"t\"`\n}\n",
		"internal/x/rd_test.go": "package x\n\nfunc read(r Rd) int { return r.ByTest }\n",
		"cmd/y/rd.go": "package main\n\nimport \"metachaos/internal/x\"\n\n" +
			"func rd(r *x.Rd) int {\n\tr.ByTest = 1\n\tr.ByTest++\n\tr.ByTest += 2\n\treturn r.ByPtr\n}\n",
	}
	runSelfCheck(t, unreadFields, []selfCheckCase{
		{"a field only written, by key, assignment or withDefaults, or never touched, is reported", nil, nil, []string{
			"internal/x/x.go:12:22: x.Options.Set is never read by non-test code",
			"internal/x/x.go:12:27: x.Options.Assigned is never read by non-test code",
			"internal/x/x.go:12:37: x.Options.Planted is never read by non-test code",
			"internal/x/x.go:12:46: x.Options.Defaulted is never read by non-test code",
			"internal/x/x.go:14:20: x.Plain.Untouched is never read by non-test code",
		}},
		{"a field only a test reads is reported with its position, not one non-test code reads through a pointer, nor a tagged one",
			rd, written, []string{"internal/x/rd.go:4:2: x.Rd.ByTest is never read by non-test code"}},
		{"an allow-listed field is not", rd, with("x.Rd.ByTest"), nil},
		{"a stale field allow-list entry fails", rd, with("x.Rd.ByTest", "x.Rd.ByPtr"),
			[]string{"allow-list entry x.Rd.ByPtr names nothing unread"}},
	})
}
