package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func shortRound(wl *workload, dir string) roundConfig {
	return roundConfig{
		wl: wl, seed: 1, round: 1, workers: 2,
		warmup: 20 * time.Millisecond, window: 100 * time.Millisecond, windows: 2,
		stallAfter: 5 * time.Second, outDir: dir,
	}
}

func TestWorkloadsPassTheirOracles(t *testing.T) {
	ladder := map[string]float64{}
	for _, d := range layerMetrics {
		if strings.HasPrefix(d.name, "ladder.") {
			ladder[d.name] = 1
		}
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var rep wlReport
			for _, traced := range []bool{false, true} {
				cfg := shortRound(wl, t.TempDir())
				cfg.traced = traced
				res := runRound(cfg)
				if res.Stalled || res.AuditError != "" || res.Failed != 0 {
					t.Fatalf("traced=%v: stalled=%v audit=%q failed=%d", traced, res.Stalled, res.AuditError, res.Failed)
				}
				if res.Attempted == 0 || res.OpsPerS <= 0 || res.ReadSamples == 0 || res.LockBytes <= 0 {
					t.Fatalf("traced=%v: nothing measured: %+v", traced, res)
				}
				if writes := wl.name != "ro-hashmap"; writes != (res.WriteSamples > 0) {
					t.Errorf("write samples %d, workload writes: %v", res.WriteSamples, writes)
				}
				res.Used = true
				rep.add(res)
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl.name+"-seed1.json")); traced && err != nil {
					t.Error(err)
				}
			}
			layer := layerFrom(&rep, ladder)
			for _, d := range layerMetrics {
				if _, ok := layer[d.name]; !ok {
					t.Errorf("traced run reports no %s", d.name)
				}
			}
		})
	}
}

// The oracle is not vacuous: a value that encodes another key fails the
// reads that see it and the post-run audit.
func TestCorruptValueIsCaught(t *testing.T) {
	ro := workloadByName("ro-hashmap")
	corrupt := &workload{name: ro.name, gen: ro.gen, lockConfig: ro.lockConfig, build: func(in *inputs) system {
		s := buildRO(in).(*roSystem)
		k := in.keys[0]
		s.m.Put(k, (k+1)<<seqBits)
		return s
	}}
	res := runRound(shortRound(corrupt, t.TempDir()))
	res.Used = true
	var rep wlReport
	rep.add(res)
	if share := e2eFrom(&rep)["failed_share"]; share <= 0 {
		t.Errorf("failed_share = %v with a corrupt value, want > 0", share)
	}
	if res.AuditError == "" {
		t.Error("the audit passed a map holding a corrupt value")
	}
	if rep.correct() {
		t.Error("a run with failed reads was reported correct")
	}
}

type parkSystem struct{ release chan struct{} }

func (s *parkSystem) worker(id int, _ *tracer) worker { return &parkWorker{s: s, park: id == 0} }
func (s *parkSystem) counters() counters              { return counters{} }
func (s *parkSystem) audit(uint64) error              { return nil }

type parkWorker struct {
	s    *parkSystem
	park bool
	n    int
}

func (w *parkWorker) do(op, bool) bool {
	if w.n++; w.park && w.n == 1000 {
		<-w.s.release
	}
	return false
}

func (w *parkWorker) totals() (uint64, uint64) { return 0, 0 }

// A worker that parks forever is reported as a stall with its in-flight op
// counted as failed and every goroutine's stack dumped, instead of hanging.
func TestWatchdogReportsStall(t *testing.T) {
	sys := &parkSystem{release: make(chan struct{})}
	defer close(sys.release)
	parks := &workload{
		name:       "park",
		gen:        func(int64, int) *inputs { return &inputs{streams: [][]op{make([]op, 16), make([]op, 16)}} },
		lockConfig: workloadByName("ro-hashmap").lockConfig,
		build:      func(*inputs) system { return sys },
	}
	cfg := shortRound(parks, t.TempDir())
	cfg.stallAfter = 200 * time.Millisecond
	res := runRound(cfg)
	if !res.Stalled || res.Failed != 1 {
		t.Fatalf("stalled=%v failed=%d, want a stall with the parked worker's op failed", res.Stalled, res.Failed)
	}
	dump, err := os.ReadFile(res.StallDump)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "parkWorker") {
		t.Error("stall dump does not show the parked worker")
	}
	if want := filepath.Join(cfg.outDir, "stall-park-1.txt"); res.StallDump != want {
		t.Errorf("dump at %s, want %s", res.StallDump, want)
	}
}
