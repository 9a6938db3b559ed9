package dacapo

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jthread"
	"repro/internal/workload"
)

var quick = harness.Options{
	Threads:       2,
	Duration:      20 * time.Millisecond,
	Runs:          1,
	InnerMeasures: 1,
}

func TestProfilesMatchTable1(t *testing.T) {
	want := map[string]float64{"h2": 0.0, "tomcat": 3.7, "tradebeans": 0.3, "tradesoap": 11.4}
	if len(Profiles) != len(want) {
		t.Fatalf("profiles = %d", len(Profiles))
	}
	for name, ro := range want {
		p := ProfileByName(name)
		if p == nil {
			t.Fatalf("missing profile %s", name)
		}
		if p.ReadOnlyPct != ro {
			t.Fatalf("%s read-only = %f, want %f", name, p.ReadOnlyPct, ro)
		}
	}
	if ProfileByName("nope") != nil {
		t.Fatalf("unknown profile resolved")
	}
}

func TestAllProfilesRunUnderLockAndSolero(t *testing.T) {
	for _, p := range Profiles {
		for _, impl := range []workload.Impl{workload.ImplLock, workload.ImplSolero} {
			t.Run(p.Name+"/"+impl.String(), func(t *testing.T) {
				vm := jthread.NewVM()
				b := New(p, impl)
				res := harness.Measure(vm, quick, b.Worker())
				if res.OpsPerSec <= 0 {
					t.Fatalf("no throughput")
				}
			})
		}
	}
}

func TestMeasuredReadOnlyRatioTracksProfile(t *testing.T) {
	for _, p := range Profiles {
		t.Run(p.Name, func(t *testing.T) {
			vm := jthread.NewVM()
			b := NewConfig(p, workload.ImplSolero, core.CountedConfig(nil))
			o := quick
			o.Duration = 40 * time.Millisecond
			harness.Measure(vm, o, b.Worker())
			total, ro := b.LockOps()
			if total == 0 {
				t.Fatalf("no lock ops")
			}
			got := 100 * float64(ro) / float64(total)
			if math.Abs(got-p.ReadOnlyPct) > 2.5 {
				t.Fatalf("read-only ratio = %.2f%%, want ~%.1f%%", got, p.ReadOnlyPct)
			}
		})
	}
}
