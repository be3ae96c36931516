package linkpad_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that keep no caller outside tests, each with the reason it
// stays. Keys are "pkg.Func" or "pkg.Type.Method", pkg being the path
// below internal/.
var exportAllowlist = map[string]string{
	// Named by the documentation.
	"analytic.DetectionRateMeanPaper":      "PAPER.md names it: Theorem 1 as printed, beside the corrected form",
	"core.System.TheoreticalDetectionRate": "the linkpad package doc names it as the theorem-side detection rate",

	// Reached through an interface the scan cannot see being called.
	"analytic.Feature.String":         "fmt.Stringer: printed with %v in adversary errors and by advclassify",
	"core.ActiveProtocol.String":      "fmt.Stringer: printed with %v in ActiveSpec validation errors",
	"core.PayloadModel.String":        "fmt.Stringer of the public linkpad.PayloadModel type",
	"population.DummyPolicy.String":   "fmt.Stringer: printed with %s in checkpoint mismatch errors",
	"population.EstimatorKind.String": "fmt.Stringer: printed with %s in checkpoint mismatch errors",
	"population.MixKind.String":       "fmt.Stringer: printed with %s in checkpoint mismatch errors",
	"population.eventSorter.Len":      "sort.Interface, called by sort.Sort",
	"population.eventSorter.Less":     "sort.Interface, called by sort.Sort",
	"population.eventSorter.Swap":     "sort.Interface, called by sort.Sort",

	// Needed by the tests of another package.
	"bayes.Classifier.DetectionRate":    "numeric eq. 7 integral the analytic tests check the closed forms against",
	"bayes.Classifier.Label":            "adversary tests check the trained class labels",
	"bayes.Confusion.Count":             "core tests compare confusion matrices cell by cell",
	"bayes.Confusion.Total":             "core and sizes tests check outcome counts",
	"cascade.Recorder.Reset":            "core tests reuse a route's entry recorder",
	"gateway.Mix.MaxDelay":              "core tests check the mix's delay accounting",
	"gateway.VarianceRatio":             "core tests check the gateway's measured r against the eq. 16 model",
	"netem.NewSliceStream":              "cascade tests feed known departure schedules through network elements",
	"obs.Reset":                         "gateway, core, experiment and linkpadsim tests zero the global counters",
	"population.DisclosureRun.Snapshot": "produces the state core's Resume option consumes; library callers checkpoint runs with it",
	"population.Engine.Class":           "core tests check the population's class striping",
	"stats.Autocorr":                    "gateway tests check the PIAT autocorrelation structure",
	"stats.Entropy":                     "the adversary tests' reference Extract computes the entropy feature with it",
	"stats.KSDistance":                  "gateway, netem and core tests compare distributions with it",
}

// TestInternalExportsHaveProductionCallers pins the rule that every
// exported function and method under internal/ is referenced by some
// non-test file of the module or of bench/, or is allowlisted with a
// reason. A test-only export is either deleted, moved into a _test.go
// file as an oracle, or listed in exportAllowlist; an allowlist entry
// whose symbol gained a caller or went away fails too, so the list
// cannot rot.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	unused, err := unreferencedInternalExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(unused) {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s (%s) has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason",
				name, unused[name])
		}
	}
	for _, name := range sortedKeys(exportAllowlist) {
		if _, ok := unused[name]; !ok {
			t.Errorf("allowlist entry %s is stale: the symbol is gone or has a production caller", name)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unreferencedInternalExports type-checks every non-test package below
// root (the module, bench/ included) and returns the exported functions
// and methods declared under internal/ that no non-test file references,
// mapped to their declaring file and line. A reference from inside the
// symbol's own body does not count. A method also counts as referenced
// when its type implements an interface whose same-named method is
// called, since the call reaches it through dynamic dispatch.
func unreferencedInternalExports(root string) (map[string]string, error) {
	l := &moduleLoader{
		root: root,
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if _, err := l.load(importPath(rel)); err != nil {
			return nil, err
		}
	}

	// The declarations under internal/, with their body extents.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
		name     string
	}
	var decls []decl
	for _, f := range l.files {
		file := l.fset.File(f.Pos()).Name()
		rel, _ := filepath.Rel(root, file)
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			name := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				name = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{fn: fn, pos: fd.Pos(), end: fd.End(), name: name})
		}
	}

	used := map[*types.Func][]token.Pos{}
	var ifaceMethods []*types.Func
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = append(used[fn], id.Pos())
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}

	out := map[string]string{}
	for _, d := range decls {
		referenced := false
		for _, p := range used[d.fn] {
			if p < d.pos || p >= d.end {
				referenced = true
				break
			}
		}
		if !referenced {
			if recv := d.fn.Signature().Recv(); recv != nil {
				referenced = reachedByDispatch(recv.Type(), d.fn.Name(), ifaceMethods)
			}
		}
		if !referenced {
			p := l.fset.Position(d.pos)
			rel, _ := filepath.Rel(root, p.Filename)
			out[d.name] = filepath.ToSlash(rel) + ":" + strconv.Itoa(p.Line)
		}
	}
	return out, nil
}

// reachedByDispatch reports whether a method name of recv is the target
// of a call through one of the used interface methods.
func reachedByDispatch(recv types.Type, name string, ifaceMethods []*types.Func) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, m := range ifaceMethods {
		if m.Name() != name {
			continue
		}
		iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// importPath maps a directory relative to the module root to its import
// path; bench/ is a module of its own whose path is linkpad/bench.
func importPath(rel string) string {
	if rel == "." {
		return "linkpad"
	}
	return "linkpad/" + filepath.ToSlash(rel)
}

// moduleLoader type-checks the module's packages from source, non-test
// files only, and the standard library from export data.
type moduleLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == "linkpad" || strings.HasPrefix(path, "linkpad/") {
		return l.load(path)
	}
	return l.std.Import(path)
}

// load type-checks one package of the module once; a directory without
// non-test Go files yields nil.
func (l *moduleLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "linkpad"), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.pkgs[path] = nil
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}
