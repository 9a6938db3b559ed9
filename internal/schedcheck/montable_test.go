package schedcheck

import (
	"testing"

	"repro/internal/sched"
)

// The montable races are pinned with a small script machine rather than
// bespoke phase switches: each step keeps granting one thread until a
// watched thread announces a given point (the announcement is held, not
// granted — montable announces PTablePin/PTableBind *before* acting, so a
// held announcement is a thread frozen with a loaded ticket in hand).
// skip grants through the first n matching announcements, which
// disambiguates reuses of the same point (an unlock's PinWord vs the next
// lock's PinWord).
type pinStep struct {
	grant uint64      // tid to keep granting
	watch uint64      // 0: advance once grant has left the runnable set
	point sched.Point // advance (and hold) when watch announces this point
	skip  int         // matching announcements to grant through first
}

type pinScript struct {
	steps []pinStep
	step  int
}

func (p *pinScript) Pick(_ int, runnable []sched.Runnable) uint64 {
	find := func(tid uint64) *sched.Runnable {
		for i := range runnable {
			if runnable[i].TID == tid {
				return &runnable[i]
			}
		}
		return nil
	}
	for p.step < len(p.steps) {
		st := &p.steps[p.step]
		if st.watch == 0 {
			if find(st.grant) == nil {
				p.step++
				continue
			}
			return st.grant
		}
		if r := find(st.watch); r != nil && r.P == st.point {
			if st.skip > 0 {
				st.skip--
				return st.watch
			}
			p.step++
			continue
		}
		if find(st.grant) != nil {
			return st.grant
		}
		if find(st.watch) != nil {
			return st.watch
		}
		p.step++
	}
	// Script exhausted: drain lowest-tid-first, so lock holders (staged
	// earliest) always make progress ahead of spinners.
	low := runnable[0].TID
	for _, r := range runnable[1:] {
		if r.TID < low {
			low = r.TID
		}
	}
	return low
}

// replayAndCheck re-executes the pinned episode from its recorded decision
// sequence and asserts the replay reproduces both the verdict and the
// exercised window — the deterministic-replay guarantee the torture suite
// leans on when a CI failure has to be rerun locally.
func replayAndCheck(t *testing.T, opts Options, out Outcome, keys []string) {
	t.Helper()
	re := Replay(opts, out.Decisions)
	if re.Aborted {
		t.Fatalf("replay aborted after %d steps", re.Steps)
	}
	if re.Failed() != out.Failed() {
		t.Fatalf("replay verdict diverged: run failed=%v, replay failed=%v (%v)",
			out.Failed(), re.Failed(), re.Violations)
	}
	for _, k := range keys {
		if re.BackendStats[k] != out.BackendStats[k] {
			t.Fatalf("replay not deterministic: %s = %d, run had %d",
				k, re.BackendStats[k], out.BackendStats[k])
		}
	}
	t.Logf("replay: go run ./cmd/solerocheck -sched -backend %s -writers %d -readers %d -sweepers %d -ops %d %s-replay %s",
		opts.Backend, opts.Writers, opts.Readers, opts.Sweepers, opts.Ops,
		map[bool]string{true: "-nodeflate ", false: ""}[opts.NoDeflate],
		sched.FormatDecisions(out.Decisions))
}

// TestMontableInflateVsSweepPinned pins the inflate-vs-sweep race: writer 2
// has bound a table entry and parked on the flat-lock-contended word, its
// bind pin still held, when the sweeper runs a full pass over the shard.
// The pin must make the sweeper skip the half-inflated entry — reclaiming
// it here would tear the monitor out from under the parked contender.
func TestMontableInflateVsSweepPinned(t *testing.T) {
	opts := Options{
		Backend: "vmlock",
		Writers: 2, Sweepers: 1,
		Ops: 2,
	}
	// tids: writer 1, writer 2, sweeper 3.
	out := RunStrategy(opts, &pinScript{steps: []pinStep{
		{grant: 1, watch: 1, point: sched.PBody},    // w1 into its section, flat lock held
		{grant: 2, watch: 2, point: sched.PFLCPark}, // w2 binds an entry (pin held) and parks contended
		{grant: 3}, // sweeper: both passes against the pinned entry
		{grant: 1}, // w1 drains: FLC release, then op 2
		{grant: 2}, // w2 wakes, inflates through the entry, drains
	}})
	if out.Aborted {
		t.Fatalf("pinned episode aborted after %d steps:\n%s", out.Steps, sched.FormatTrace(out.Trace))
	}
	if out.Failed() {
		t.Fatalf("pinned episode violations: %v\n%s", out.Violations, out.HistoryTail)
	}
	if got := out.BackendStats["tableSweepSkipPinned"]; got == 0 {
		t.Errorf("no pinned-entry sweep skips: the schedule missed the inflate-vs-sweep window\n%s",
			sched.FormatTrace(out.Trace))
	}
	if got := out.BackendStats["inflations"]; got == 0 {
		t.Errorf("no inflations: the contender never finished inflating")
	}
	replayAndCheck(t, opts, out, []string{"tableSweepSkipPinned", "inflations"})
}

// TestMontableReclaimVsLateWaiterPinned pins the reclaim-vs-late-waiter
// race: writer 2 has loaded a fat (ticket) word and announced its pin —
// ticket in hand, pin not yet taken — when the sweeper deflates the
// quiescent word and reclaims the entry. The late pin must resolve stale
// (generation mismatch against the reclaimed slot) and fall back to the
// flat path, never touching the recycled monitor. NoDeflate makes the
// sweeper the only demotion path, so the window is schedulable instead of
// racing a lucky release.
func TestMontableReclaimVsLateWaiterPinned(t *testing.T) {
	opts := Options{
		Backend: "vmlock",
		Writers: 2, Sweepers: 1,
		Ops:       2,
		NoDeflate: true,
	}
	// tids: writer 1, writer 2, sweeper 3.
	out := RunStrategy(opts, &pinScript{steps: []pinStep{
		{grant: 1, watch: 1, point: sched.PBody},    // w1 into its section, flat lock held
		{grant: 2, watch: 2, point: sched.PFLCPark}, // w2 binds and parks contended
		{grant: 1}, // w1 drains both ops; the FLC release frees the word
		// w2 wakes, inflates, finishes op 1 (word stays fat: NoDeflate), and
		// its op-2 acquire loads the ticket and announces the pin. The first
		// PTablePin is op 1's unlock resolving its own ticket — grant
		// through it; hold the second, ticket in hand.
		{grant: 2, watch: 2, point: sched.PTablePin, skip: 1},
		{grant: 3}, // sweeper: pass 1 opens the idle epoch, pass 2 deflates + reclaims
		{grant: 2}, // w2's held pin resolves stale and retries flat
	}})
	if out.Aborted {
		t.Fatalf("pinned episode aborted after %d steps:\n%s", out.Steps, sched.FormatTrace(out.Trace))
	}
	if out.Failed() {
		t.Fatalf("pinned episode violations: %v\n%s", out.Violations, out.HistoryTail)
	}
	for _, k := range []string{"tableStalePins", "tableSweepDeflations", "tableSweepReclaims"} {
		if out.BackendStats[k] == 0 {
			t.Errorf("%s = 0: the schedule missed the reclaim-vs-late-waiter window\n%s",
				k, sched.FormatTrace(out.Trace))
		}
	}
	replayAndCheck(t, opts, out, []string{"tableStalePins", "tableSweepReclaims"})
}

// TestMontableTicketReusePinned pins the ticket-reuse (ABA) race: writer 2
// is frozen holding a generation-0 ticket for a slot the sweeper then
// reclaims; writers 1 and 3 re-inflate, recycling the same slot from the
// free list under a bumped generation. Writer 2's stale ticket must be
// refused by the generation check even though the slot is bound again —
// without it, w2 would enter a monitor that now belongs to a different
// inflation.
func TestMontableTicketReusePinned(t *testing.T) {
	opts := Options{
		Backend: "vmlock",
		Writers: 3, Sweepers: 1,
		Ops:       2,
		NoDeflate: true,
	}
	// tids: writers 1-3, sweeper 4.
	out := RunStrategy(opts, &pinScript{steps: []pinStep{
		{grant: 1, watch: 1, point: sched.PBody},       // w1 op 1 in section, flat lock held
		{grant: 2, watch: 2, point: sched.PFLCPark},    // w2 binds slot (gen 0) and parks contended
		{grant: 1, watch: 1, point: sched.PAcquireCAS}, // w1 releases op 1, holds before its op-2 CAS
		// w2 wakes, inflates ticket gen 0, finishes op 1 fat; its op-2 pin
		// announcement is held with the gen-0 ticket in hand (skip op 1's
		// unlock pin).
		{grant: 2, watch: 2, point: sched.PTablePin, skip: 1},
		{grant: 4},                                  // sweeper deflates + reclaims the slot: generation bumps
		{grant: 1, watch: 1, point: sched.PBody},    // w1 op 2 grabs the flat lock
		{grant: 3, watch: 3, point: sched.PFLCPark}, // w3 re-binds the recycled slot (gen 1) and parks
		// w2's gen-0 pin resolves against the gen-1 binding: stale. It falls
		// back to contention and re-binds; drain everything lowest-tid-first.
		{grant: 2, watch: 2, point: sched.PTableBind},
	}})
	if out.Aborted {
		t.Fatalf("pinned episode aborted after %d steps:\n%s", out.Steps, sched.FormatTrace(out.Trace))
	}
	if out.Failed() {
		t.Fatalf("pinned episode violations: %v\n%s", out.Violations, out.HistoryTail)
	}
	for _, k := range []string{"tableRebinds", "tableStalePins", "tableSweepReclaims"} {
		if out.BackendStats[k] == 0 {
			t.Errorf("%s = 0: the schedule missed the ticket-reuse window\n%s",
				k, sched.FormatTrace(out.Trace))
		}
	}
	replayAndCheck(t, opts, out, []string{"tableRebinds", "tableStalePins"})
}

// TestMontableSweeperExploration runs the regular randomized explorer over
// the table-backed backends with sweepers in the mix: no interleaving of
// inflate, sweep, reclaim, and rebind may lose a writer's update or trip
// the monitor-identity oracle.
func TestMontableSweeperExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"vmlock", "solero"} {
		for _, nodeflate := range []bool{false, true} {
			opts := Options{
				Backend: name,
				Writers: 2, Readers: 1, Sweepers: 1,
				Ops:  4,
				Seed: 7,
			}
			opts.NoDeflate = nodeflate
			res := Explore(opts, 60, 0, nil)
			if res.Failing != nil {
				t.Fatalf("%s nodeflate=%v episode %d (seed %#x) failed: %v\nminimized: %v\n%s",
					name, nodeflate, res.Episode, res.EpisodeSeed,
					res.Failing.Violations, res.Minimized, res.Failing.HistoryTail)
			}
			if res.Episodes == 0 {
				t.Fatalf("%s: no episodes ran", name)
			}
		}
	}
}

// TestEagerReadDeflationVsQueuedWriterPinned pins the eager read-side
// deflation race on the table path: reader 4 holds the fat lock inside its
// section while writer 2 has resolved the ticket and queued on the bound
// entry's monitor. The reader's exit deflates anyway (a read exit does not
// wait for a quiet queue), and writer 3 — which bound the same entry
// while spinning on the fat word — grabs the deflated flat word and queues
// to re-inflate through that binding before writer 2 runs again. Writer 2
// is then handed the monitor, but the word is no longer its ticket: it
// must leave on the post-entry word re-check rather than run its section
// beside writer 3's flat hold.
func TestEagerReadDeflationVsQueuedWriterPinned(t *testing.T) {
	opts := Options{
		Backend: "solero",
		Writers: 3, Readers: 1,
		Ops: 1,
	}
	// tids: writers 1-3, reader 4.
	out := RunStrategy(opts, &pinScript{steps: []pinStep{
		{grant: 1, watch: 1, point: sched.PBody},    // w1 into its section, flat lock held
		{grant: 3, watch: 3, point: sched.PSpin},    // w3 starts spinning on the held word
		{grant: 4, watch: 4, point: sched.PFLCPark}, // r4 gives up spinning, binds the entry, parks contended
		{grant: 1},                               // w1 drains: the FLC release wakes r4
		{grant: 4, watch: 4, point: sched.PBody}, // r4 inflates and runs its section holding the fat lock
		{grant: 2},                               // w2 pins the ticket and queues on the monitor
		{grant: 3, watch: 3, point: sched.PTableBind}, // w3 sees the fat word and heads for the entry
		{grant: 4}, // r4 exits: eager deflation with w2 queued
		{grant: 3}, // w3 binds the same entry, takes the flat word, queues
		{grant: 2, watch: 2, point: sched.PTableReclaim}, // w2 enters, finds w3's word, leaves
	}})
	if out.Aborted {
		t.Fatalf("pinned episode aborted after %d steps:\n%s", out.Steps, sched.FormatTrace(out.Trace))
	}
	if out.Failed() {
		t.Fatalf("pinned episode violations: %v\n%s", out.Violations, out.HistoryTail)
	}
	// w2's first monitor entry is the queued one; the next thing it does
	// must be to drop its pin on the failed re-check, not to run its body.
	var entered, left bool
	for _, st := range out.Trace {
		if st.TID != 2 {
			continue
		}
		if entered {
			left = st.P == sched.PTableReclaim
			break
		}
		entered = st.P == sched.PMonitorEnter
	}
	if !left {
		t.Errorf("w2 did not leave on the post-entry re-check\n%s", sched.FormatTrace(out.Trace))
	}
	// One binding, inflated by r4 and re-inflated by w3, returned to the
	// table once the last holder deflated.
	for k, want := range map[string]uint64{"tableBinds": 1, "tableRebinds": 0, "inflations": 2, "tableBound": 0} {
		if got := out.BackendStats[k]; got != want {
			t.Errorf("%s = %d, want %d: the schedule missed the re-inflation window\n%s",
				k, got, want, sched.FormatTrace(out.Trace))
		}
	}
	replayAndCheck(t, opts, out, []string{"inflations", "deflations", "tableReleaseReclaims"})
}
