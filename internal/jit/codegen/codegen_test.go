package codegen

import (
	"strings"
	"testing"

	"repro/internal/jit/analysis"
	"repro/internal/jit/ir"
	"repro/internal/jit/lang"
	"repro/internal/jit/sema"
	"repro/internal/memmodel"
)

const src = `
class A {
	int x, hits;
	int get() { synchronized (this) { return x; } }
	void set(int v) { synchronized (this) { x = v; } }
	int mostly(boolean b) { synchronized (this) { if (b) { hits = hits + 1; } return x; } }
}
`

func build(t *testing.T) (*ir.Program, *analysis.Result) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := ir.Compile(ck)
	if err != nil {
		t.Fatal(err)
	}
	return compiled, analysis.Analyze(ck)
}

func planOf(p *ir.Program, method string) ir.LockPlanKind {
	return p.MethodByName("A", method).Syncs[0].Plan
}

func TestApplyDefaultOptions(t *testing.T) {
	p, res := build(t)
	rep := Apply(p, res, DefaultOptions)
	if planOf(p, "get") != ir.PlanElide {
		t.Fatalf("get plan = %v", planOf(p, "get"))
	}
	if planOf(p, "set") != ir.PlanWrite {
		t.Fatalf("set plan = %v", planOf(p, "set"))
	}
	if planOf(p, "mostly") != ir.PlanReadMostly {
		t.Fatalf("mostly plan = %v", planOf(p, "mostly"))
	}
	if rep.Elided != 1 || rep.ReadMostly != 1 || rep.Writing != 1 {
		t.Fatalf("report totals: %+v", rep)
	}
	if len(rep.Lines) != 3 {
		t.Fatalf("report lines = %d", len(rep.Lines))
	}
}

func TestApplyElisionDisabled(t *testing.T) {
	p, res := build(t)
	rep := Apply(p, res, Options{})
	for _, m := range []string{"get", "set", "mostly"} {
		if planOf(p, m) != ir.PlanWrite {
			t.Fatalf("%s plan = %v with elision off", m, planOf(p, m))
		}
	}
	if rep.Writing != 3 {
		t.Fatalf("writing = %d", rep.Writing)
	}
}

func TestApplyReadMostlyOnlyDisabled(t *testing.T) {
	p, res := build(t)
	Apply(p, res, Options{EnableElision: true})
	if planOf(p, "get") != ir.PlanElide {
		t.Fatalf("elision lost")
	}
	if planOf(p, "mostly") != ir.PlanWrite {
		t.Fatalf("read-mostly not demoted to write")
	}
}

func TestReportPrint(t *testing.T) {
	p, res := build(t)
	rep := Apply(p, res, DefaultOptions)
	var sb strings.Builder
	rep.Print(&sb)
	out := sb.String()
	for _, want := range []string{"A.get", "plan elide", "totals: 1 elided, 1 read-mostly, 1 writing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFencePlans(t *testing.T) {
	conv, sol, err := FencePlans("power")
	if err != nil {
		t.Fatalf("power: %v", err)
	}
	if conv != memmodel.ConventionalPower || sol != memmodel.SoleroPower {
		t.Fatalf("power plans wrong")
	}
	conv, sol, err = FencePlans("power-weak")
	if err != nil || conv != memmodel.ConventionalPower || sol != memmodel.SoleroWeakBarrier {
		t.Fatalf("power-weak wrong")
	}
	conv, sol, err = FencePlans("tso")
	if err != nil || conv != memmodel.NoFences || sol != memmodel.SoleroTSO {
		t.Fatalf("tso wrong")
	}
	conv, sol, err = FencePlans("none")
	if err != nil || conv != memmodel.NoFences || sol != memmodel.NoFences {
		t.Fatalf("none wrong")
	}
	if _, _, err := FencePlans("sparc9000"); err == nil {
		t.Fatalf("unknown arch accepted")
	}
}
