package simcoherence

import (
	"testing"

	"repro/internal/jit/codegen"
	"repro/internal/memmodel"
)

func TestPowerCostOrdering(t *testing.T) {
	isync, lwsync, sync := fenceCycles[memmodel.FenceISync], fenceCycles[memmodel.FenceLWSync], fenceCycles[memmodel.FenceSync]
	if !(isync < lwsync && lwsync < sync) {
		t.Fatalf("Power fence costs not ordered isync < lwsync < sync: %v", fenceCycles)
	}
	if fenceCycles[memmodel.FenceNone] != 0 {
		t.Fatalf("FenceNone must be free")
	}
	if fenceCycles[memmodel.FenceStoreLoad] == 0 {
		t.Fatalf("TSO's store->load fence must cost something")
	}
	// The weak plan must be strictly cheaper on Power at read entry —
	// that is the entire point of the Figure 10 ablation.
	if fenceCycles[memmodel.SoleroWeakBarrier.ReadEnter] >= fenceCycles[memmodel.SoleroPower.ReadEnter] {
		t.Fatalf("weak plan not cheaper than correct plan at read entry")
	}
}

// TestZeroFencesChangeNothing pins the results the simulator gave before it
// had a fence axis: the zero Fences plan must reproduce them exactly, so
// Figures 12–15 cannot drift.
func TestZeroFencesChangeNothing(t *testing.T) {
	if DefaultConfig().Fences != memmodel.NoFences {
		t.Fatal("DefaultConfig must charge no fences")
	}
	for _, tc := range []struct {
		proto                         Protocol
		defaultOps                    uint64
		contendedOps, contendedFailed uint64
	}{
		{ProtoMutex, 24359, 24646, 0},
		{ProtoRW, 21249, 18948, 0},
		{ProtoSolero, 28535, 55486, 7130},
	} {
		r := run(t, func(c *Config) { c.Protocol = tc.proto })
		if r.Ops != tc.defaultOps {
			t.Errorf("%v, DefaultConfig: %d ops, want %d", tc.proto, r.Ops, tc.defaultOps)
		}
		r = run(t, func(c *Config) { c.Protocol = tc.proto; c.Cores = 4; c.WritePct = 5 })
		if r.Ops != tc.contendedOps || r.ElisionFailures != tc.contendedFailed {
			t.Errorf("%v, 4 cores 5%% writes: %d ops %d failures, want %d, %d",
				tc.proto, r.Ops, r.ElisionFailures, tc.contendedOps, tc.contendedFailed)
		}
	}
}

// TestFencePlansCostCycles checks that each of the four placement points is
// charged, and the Figure 10 ordering at one core and 0% writes: SOLERO's
// correct Power plan costs cycles over no fences, and the WeakBarrier plan
// costs fewer than the correct one.
func TestFencePlansCostCycles(t *testing.T) {
	cyclesPerOp := func(proto Protocol, plan memmodel.Plan) float64 {
		r := run(t, func(c *Config) { c.Protocol = proto; c.Fences = plan })
		return float64(DefaultConfig().Duration) / float64(r.Ops)
	}
	for _, tc := range []struct {
		point string
		proto Protocol
		plan  memmodel.Plan
	}{
		{"acquire", ProtoMutex, memmodel.Plan{WriteAcquire: memmodel.FenceSync}},
		{"release", ProtoMutex, memmodel.Plan{WriteRelease: memmodel.FenceSync}},
		{"read-enter", ProtoSolero, memmodel.Plan{ReadEnter: memmodel.FenceSync}},
		{"read-validate", ProtoSolero, memmodel.Plan{ReadExit: memmodel.FenceSync}},
	} {
		if got, none := cyclesPerOp(tc.proto, tc.plan), cyclesPerOp(tc.proto, memmodel.NoFences); got <= none {
			t.Errorf("%s: a sync costs nothing (%.1f vs %.1f cycles/op)", tc.point, got, none)
		}
	}
	none := cyclesPerOp(ProtoSolero, memmodel.NoFences)
	power := cyclesPerOp(ProtoSolero, memmodel.SoleroPower)
	weak := cyclesPerOp(ProtoSolero, memmodel.SoleroWeakBarrier)
	if !(power > none) {
		t.Fatalf("SoleroPower %.1f cycles/op, not above no fences %.1f", power, none)
	}
	if !(weak < power) {
		t.Fatalf("SoleroWeakBarrier %.1f cycles/op, not below SoleroPower %.1f", weak, power)
	}
}

// BenchmarkAblationFence compares fence plans for elided read sections:
// an empty section, back to back on one simulated core, under each
// architecture's SOLERO plan. cycles/op is the simulated cost; ns/op is
// only the simulator's own run time.
func BenchmarkAblationFence(b *testing.B) {
	for _, arch := range []string{"none", "power", "power-weak", "tso"} {
		_, plan, err := codegen.FencePlans(arch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arch, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Protocol = ProtoSolero
			cfg.BodyReads, cfg.BodyWrites, cfg.ThinkCycles = 0, 0, 0
			cfg.Duration = 100_000
			cfg.Fences = plan
			var r Result
			for i := 0; i < b.N; i++ {
				r, err = Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Duration)/float64(r.Ops), "cycles/op")
		})
	}
}
