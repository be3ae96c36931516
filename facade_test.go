package linkpad_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"linkpad"
	"linkpad/internal/core"
)

// facade_test.go: the facade-completeness property. The root package is
// a facade over internal/core's scenario API; this test parses core's
// sources for the sealed Spec set (every receiver of a scenarioSpec
// method) and fails when a spec type exists in core without a root-level
// alias — so adding a seventh protocol without surfacing it breaks CI,
// not a downstream user. The reflect half then verifies each surfaced
// alias really is core's type (field-for-field), so the facade can never
// drift into a stale copy that hides newly added spec or option fields.

// facadeSpecTypes maps every core spec type name to its facade alias.
// A new entry is required whenever core gains a Spec implementation —
// the parser check below enforces exactly that.
var facadeSpecTypes = map[string]reflect.Type{
	"AttackSetSpec":          reflect.TypeOf(linkpad.AttackSetSpec{}),
	"SessionAttackSpec":      reflect.TypeOf(linkpad.SessionAttackSpec{}),
	"DisclosureSpec":         reflect.TypeOf(linkpad.DisclosureSpec{}),
	"FlowCorrelationSpec":    reflect.TypeOf(linkpad.FlowCorrelationSpec{}),
	"CascadeCorrelationSpec": reflect.TypeOf(linkpad.CascadeCorrelationSpec{}),
	"ActiveDetectionSpec":    reflect.TypeOf(linkpad.ActiveDetectionSpec{}),
}

// coreSpecTypeNames parses internal/core and returns the receiver type
// name of every scenarioSpec method — the authoritative sealed Spec set.
func coreSpecTypeNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/core", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name != "scenarioSpec" || fn.Recv == nil || len(fn.Recv.List) != 1 {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no scenarioSpec receivers found in internal/core; did the Spec seal move?")
	}
	return names
}

func TestFacadeSurfacesEverySpecType(t *testing.T) {
	for _, name := range coreSpecTypeNames(t) {
		alias, ok := facadeSpecTypes[name]
		if !ok {
			t.Errorf("core spec type %s has no facade alias in the root package; "+
				"add `%s = core.%s` to linkpad.go and to facadeSpecTypes", name, name, name)
			continue
		}
		if alias.PkgPath() != "linkpad/internal/core" || alias.Name() != name {
			t.Errorf("facade %s aliases %s.%s, want core.%s",
				name, alias.PkgPath(), alias.Name(), name)
		}
	}
}

// TestFacadeScenarioShapes: the run-option and result shapes the specs
// feed into must alias core's — a field added to core.RunOptions or
// core.Result is immediately visible through the facade.
func TestFacadeScenarioShapes(t *testing.T) {
	pairs := []struct {
		name   string
		facade reflect.Type
		core   reflect.Type
	}{
		{"RunOptions", reflect.TypeOf(linkpad.RunOptions{}), reflect.TypeOf(core.RunOptions{})},
		{"ScenarioResult", reflect.TypeOf(linkpad.ScenarioResult{}), reflect.TypeOf(core.Result{})},
	}
	for _, p := range pairs {
		if p.facade != p.core {
			t.Errorf("facade %s is %v, want alias of %v", p.name, p.facade, p.core)
		}
		if p.facade.NumField() == 0 {
			t.Errorf("%s has no fields; the scenario shapes should not be empty", p.name)
		}
	}
	var sc linkpad.Scenario
	if _, ok := interface{}(&sc).(*core.Scenario); !ok {
		t.Error("linkpad.Scenario is not an alias of core.Scenario")
	}
}

// TestFacadeScenarioRuns: the scenario path works end to end from the
// root package alone.
func TestFacadeScenarioRuns(t *testing.T) {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.Build(linkpad.DisclosureSpec{
		Population: linkpad.PopulationSpec{Users: 16, Recipients: 40, CoverRate: 0.5},
		Disclosure: linkpad.DisclosureConfig{MaxRounds: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background(), linkpad.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disclosure == nil || res.Disclosure.Rounds == 0 {
		t.Fatalf("facade scenario run returned %+v", res)
	}
}
