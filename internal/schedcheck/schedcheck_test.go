package schedcheck

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestCleanRuns: the correct lock survives schedule exploration across a
// spread of seeds and both strategies with a clean oracle.
func TestCleanRuns(t *testing.T) {
	for _, strat := range []string{"random", "pct"} {
		for seed := uint64(1); seed <= 5; seed++ {
			out := Run(Options{
				Writers: 2, Readers: 2, Upgraders: 1, Ops: 10,
				Seed: seed, Strategy: strat,
			})
			if out.Aborted {
				t.Fatalf("%s seed %d: aborted after %d steps", strat, seed, out.Steps)
			}
			if out.Failed() {
				t.Fatalf("%s seed %d: false violations: %v\n%s",
					strat, seed, out.Violations, out.HistoryTail)
			}
			if out.Steps == 0 || out.Events == 0 {
				t.Fatalf("%s seed %d: nothing happened (steps=%d events=%d)",
					strat, seed, out.Steps, out.Events)
			}
		}
	}
}

// TestBugCaught: the injected no-counter-bump release is detected — the
// counter-pairing oracle fires on the very first buggy release, so any
// seed catches it within one episode.
func TestBugCaught(t *testing.T) {
	out := Run(Options{
		Writers: 2, Readers: 2, Ops: 10,
		Seed: 1, Bug: core.BugNoCounterBump,
	})
	if !out.Failed() {
		t.Fatal("BugNoCounterBump not caught")
	}
	found := false
	for _, v := range out.Violations {
		if strings.Contains(v, "must advance") || strings.Contains(v, "torn") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexpected violation set: %v", out.Violations)
	}
}

// TestReplayDeterminism: replaying a run's decision sequence reproduces
// the identical schedule and verdict. A failure reports each run's
// block-watchdog count and where the two schedules part.
func TestReplayDeterminism(t *testing.T) {
	opts := Options{Writers: 2, Readers: 2, Upgraders: 1, Ops: 8, Seed: 42}
	first := Run(opts)
	again := Run(opts)
	if sched.FormatDecisions(first.Decisions) != sched.FormatDecisions(again.Decisions) {
		t.Fatalf("same seed produced different schedules\n%s", divergence(&first, &again))
	}
	replayed := Replay(opts, first.Decisions)
	for _, o := range []*Outcome{&first, &again, &replayed} {
		t.Logf("%d decisions, %d block watchdogs", len(o.Decisions), o.Watchdogs)
	}
	if sched.FormatDecisions(replayed.Decisions) != sched.FormatDecisions(first.Decisions) {
		t.Fatalf("replay diverged from the recording\n%s", divergence(&first, &replayed))
	}
	if replayed.Failed() != first.Failed() {
		t.Fatal("replay changed the verdict")
	}
}

// divergence describes where two runs' schedules part: each run's
// block-watchdog count, the first decision index at which they differ with
// the decisions around it, and the first differing step of their point
// traces with the steps around it.
func divergence(a, b *Outcome) string {
	var sb strings.Builder
	for i, o := range []*Outcome{a, b} {
		fmt.Fprintf(&sb, "run %d: %d decisions, %d steps, %d block watchdogs\n",
			i+1, len(o.Decisions), len(o.Trace), o.Watchdogs)
	}
	d := firstDiff(len(a.Decisions), len(b.Decisions), func(i int) bool { return a.Decisions[i] == b.Decisions[i] })
	fmt.Fprintf(&sb, "first diverging decision: #%d\n", d+1)
	for i, o := range []*Outcome{a, b} {
		lo, hi := max(d-4, 0), min(d+5, len(o.Decisions))
		fmt.Fprintf(&sb, "  run %d decisions #%d..#%d: %s\n", i+1, lo+1, hi, sched.FormatDecisions(o.Decisions[lo:hi]))
	}
	k := firstDiff(len(a.Trace), len(b.Trace), func(i int) bool { return a.Trace[i] == b.Trace[i] })
	fmt.Fprintf(&sb, "first diverging trace step: #%d\n", k+1)
	for i, o := range []*Outcome{a, b} {
		lo, hi := max(k-8, 0), min(k+8, len(o.Trace))
		fmt.Fprintf(&sb, "  run %d steps #%d..#%d: %s\n", i+1, lo+1, hi, sched.FormatTrace(o.Trace[lo:hi]))
	}
	return sb.String()
}

// firstDiff returns the first index below min(na, nb) where same is false,
// or min(na, nb) when one sequence is a prefix of the other.
func firstDiff(na, nb int, same func(int) bool) int {
	n := min(na, nb)
	for i := 0; i < n; i++ {
		if !same(i) {
			return i
		}
	}
	return n
}

// TestExploreFindsAndMinimizes: exploration stops at the first failing
// episode and the minimized schedule still reproduces a violation.
func TestExploreFindsAndMinimizes(t *testing.T) {
	opts := Options{Writers: 2, Readers: 2, Ops: 10, Seed: 7, Bug: core.BugNoCounterBump}
	res := Explore(opts, 5, 0, nil)
	if res.Failing == nil {
		t.Fatal("exploration missed the injected bug")
	}
	if len(res.Minimized) > len(res.Failing.Decisions) {
		t.Fatalf("minimization grew the schedule: %d -> %d",
			len(res.Failing.Decisions), len(res.Minimized))
	}
	ep := opts
	ep.Seed = res.EpisodeSeed
	if out := Replay(ep, res.Minimized); !out.Failed() {
		t.Fatal("minimized schedule no longer fails")
	}
}

// TestExploreCleanSweep: a clean lock sweeps a few episodes without a
// false positive.
func TestExploreCleanSweep(t *testing.T) {
	res := Explore(Options{Writers: 1, Readers: 2, Upgraders: 1, Ops: 8, Seed: 3}, 8, 0, nil)
	if res.Failing != nil {
		t.Fatalf("false positive in episode %d (seed %d): %v",
			res.Episode, res.EpisodeSeed, res.Failing.Violations)
	}
	if res.Episodes != 8 {
		t.Fatalf("ran %d episodes, want 8", res.Episodes)
	}
}
