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
	"sync"
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
	"core.System.CalibrateVIT":             "the linkpad package doc names it as the empirical σ_T design solver",

	// Reached through an interface the scan cannot see being called.
	"analytic.Feature.String":         "fmt.Stringer: printed with %v in adversary errors and by advclassify",
	"core.ActiveProtocol.String":      "fmt.Stringer: printed with %v in ActiveSpec validation errors",
	"core.PayloadModel.String":        "fmt.Stringer of the public linkpad.PayloadModel type",
	"population.DummyPolicy.String":   "fmt.Stringer: printed with %s in mix validation errors",
	"population.EstimatorKind.String": "fmt.Stringer: printed with %s in mix validation errors",
	"population.MixKind.String":       "fmt.Stringer: printed with %s in mix validation errors",
	"population.eventSorter.Len":      "sort.Interface, called by sort.Sort",
	"population.eventSorter.Less":     "sort.Interface, called by sort.Sort",
	"population.eventSorter.Swap":     "sort.Interface, called by sort.Sort",

	// Needed by the tests of another package.
	"bayes.Classifier.DetectionRate": "numeric eq. 7 integral the analytic tests check the closed forms against",
	"bayes.Classifier.Label":         "adversary tests check the trained class labels",
	"bayes.Confusion.Count":          "core tests compare confusion matrices cell by cell",
	"bayes.Confusion.Total":          "core and sizes tests check outcome counts",
	"gateway.Mix.MaxDelay":           "core tests check the mix's delay accounting",
	"gateway.VarianceRatio":          "core tests check the gateway's measured r against the eq. 16 model",
	"netem.NewSliceStream":           "cascade tests feed known departure schedules through network elements",
	"obs.Reset":                      "gateway, core, experiment and linkpadsim tests zero the global counters",
	"population.Engine.Class":        "core tests check the population's class striping",
	"stats.Autocorr":                 "gateway tests check the PIAT autocorrelation structure",
	"stats.Entropy":                  "the adversary tests' reference Extract computes the entropy feature with it",
	"stats.KSDistance":               "gateway, netem and core tests compare distributions with it",
}

// TestInternalExportsHaveProductionCallers pins the rule that every
// exported function and method under internal/ is referenced by some
// non-test file of the module or of bench/, or is allowlisted with a
// reason. A test-only export is either deleted, moved into a _test.go
// file as an oracle, or listed in exportAllowlist; an allowlist entry
// whose symbol gained a caller or went away fails too, so the list
// cannot rot.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, unreferencedInternalExports(l), exportAllowlist,
		"has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason",
		"the symbol is gone or has a production caller")
}

// fieldAllowlist names the exported fields of internal/core's Spec,
// Config and Options structs that no non-test file outside internal/core
// writes, each with the reason it stays. Keys are "Type.Field".
var fieldAllowlist = map[string]string{
	"Config.Tau":                       "the paper's padding period τ (§3.2), set by DefaultLabConfig; every runner keeps the paper's 10 ms",
	"Config.Jitter":                    "the paper's host jitter model (§4.1.2), set by DefaultLabConfig",
	"CascadeCorrConfig.FeatureWindow":  "bench/trace.go reads it to size the cascade workload's classifier work",
	"ActiveDetectConfig.FeatureWindow": "bench/trace.go reads it to size the watermark workload's classifier work",
}

// TestCoreSpecFieldsHaveProductionSetters pins the rule that every
// exported field of an exported internal/core struct named *Spec,
// *Config or *Options is written — as a composite-literal key or by an
// assignment to a selector — by some non-test file outside internal/core
// (the module's runners, commands and facade, or bench/), or is
// allowlisted with a reason. A knob no caller sets is a constant in
// disguise: every result comes from its default. An allowlist entry
// whose field gained a setter or went away fails too.
func TestCoreSpecFieldsHaveProductionSetters(t *testing.T) {
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, unsetCoreSpecFields(l), fieldAllowlist,
		"is set by no non-test file outside internal/core: replace it with a constant, or allowlist it with a reason",
		"the field is gone or has a production setter")
}

// checkAllowlist fails t for every found name missing from allow and
// for every allow entry that was not found.
func checkAllowlist(t *testing.T, found, allow map[string]string, unlisted, stale string) {
	t.Helper()
	for _, name := range sortedKeys(found) {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s (%s) %s", name, found[name], unlisted)
		}
	}
	for _, name := range sortedKeys(allow) {
		if _, ok := found[name]; !ok {
			t.Errorf("allowlist entry %s is stale: %s", name, stale)
		}
	}
}

// unsetCoreSpecFields returns the exported fields of internal/core's
// exported *Spec, *Config and *Options structs that no non-test file
// outside internal/core writes, mapped to their declaring file and line.
func unsetCoreSpecFields(l *moduleLoader) map[string]string {
	core := l.pkgs["linkpad/internal/core"]
	fields := map[*types.Var]string{}
	for _, name := range core.Scope().Names() {
		tn, ok := core.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() ||
			!(strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = name + "." + f.Name()
			}
		}
	}
	written := map[*types.Var]bool{}
	mark := func(id *ast.Ident) {
		if v, ok := l.info.Uses[id].(*types.Var); ok {
			written[v] = true
		}
	}
	for _, f := range l.files {
		if strings.HasPrefix(l.rel(f.Pos()), "internal/core/") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						mark(sel.Sel)
					}
				}
			}
			return true
		})
	}
	out := map[string]string{}
	for v, name := range fields {
		if !written[v] {
			out[name] = l.rel(v.Pos()) + ":" + strconv.Itoa(l.fset.Position(v.Pos()).Line)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The module's type-checked load, shared by the tests of this file so
// the packages are checked once per test binary.
var (
	moduleOnce   sync.Once
	moduleLoaded *moduleLoader
	moduleErr    error
)

// loadModule type-checks every non-test package of the module (bench/
// included) once and returns the shared loader.
func loadModule() (*moduleLoader, error) {
	moduleOnce.Do(func() { moduleLoaded, moduleErr = loadPackagesBelow(".") })
	return moduleLoaded, moduleErr
}

// loadPackagesBelow type-checks every non-test package below root.
func loadPackagesBelow(root string) (*moduleLoader, error) {
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
	return l, nil
}

// unreferencedInternalExports returns the exported functions and methods
// declared under internal/ that no non-test file of the loaded module
// references, mapped to their declaring file and line. A reference from
// inside the symbol's own body does not count. A method also counts as
// referenced when its type implements an interface whose same-named
// method is called, since the call reaches it through dynamic dispatch.
func unreferencedInternalExports(l *moduleLoader) map[string]string {
	// The declarations under internal/, with their body extents.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
		name     string
	}
	var decls []decl
	for _, f := range l.files {
		rel := l.rel(f.Pos())
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
			out[d.name] = l.rel(d.pos) + ":" + strconv.Itoa(l.fset.Position(d.pos).Line)
		}
	}
	return out
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

// rel returns the slash-separated path, relative to the module root, of
// the file holding pos.
func (l *moduleLoader) rel(pos token.Pos) string {
	rel, _ := filepath.Rel(l.root, l.fset.Position(pos).Filename)
	return filepath.ToSlash(rel)
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
