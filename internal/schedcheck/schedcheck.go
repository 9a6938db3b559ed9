// Package schedcheck is the harness that points the schedule-injection
// kernel (internal/sched) and the invariant oracle (internal/history) at
// the *real* lock implementations. Where internal/modelcheck exhaustively
// explores a hand-written abstraction of the protocol, schedcheck explores
// the shipped code itself: a mix of writer, reader, and read-mostly
// upgrader threads runs against any backend from the internal/backend SPI
// (SOLERO by default, or the vmlock/rwlock baselines) whose schedule
// points are wired to a deterministic controller, and everything the lock
// and the threads do is recorded and checked against the same safety
// invariants the model checker proves.
// The SOLERO-word-specific counter-monotonicity checks apply only to the
// solero backend (the others record no core protocol events); mutual
// exclusion, reader soundness, and the final-state checks apply to all.
//
// A run is identified by (seed, strategy, thread mix, ops): replaying
// those reproduces the exact interleaving, and a failing episode's
// decision sequence is auto-minimized to a short replayable schedule.
package schedcheck

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/montable"
	"repro/internal/sched"
	"repro/internal/vmlock"
)

// Options configures one schedule-injected episode.
type Options struct {
	// Backend names the lock under test (internal/backend registry);
	// empty means "solero". Backends without an in-place upgrade run
	// their upgrader threads as plain writers, preserving the write
	// count the final-state oracle expects.
	Backend string
	// Thread mix: writers take the lock, readers run read sections
	// (elided for solero), upgraders run read-mostly sections that write.
	Writers, Readers, Upgraders int
	// Sweepers are threads that drive explicit montable sweep passes
	// (Ops each) against a table-backed backend (vmlock, solero),
	// exposing the inflate-vs-sweep, reclaim-vs-late-waiter, and
	// ticket-reuse races to the schedule explorer. Ignored (the threads idle) for backends
	// without a monitor table. Sweepers register after all other roles,
	// so their tids follow the workload tids.
	Sweepers int
	// NoDeflate disables on-release deflation in the lock under test so
	// the sweeper is the only demotion path — the configuration that
	// makes the reclaim races schedulable rather than racing against
	// lucky releases.
	NoDeflate bool
	// Ops is the number of critical sections each thread executes.
	Ops int
	// Seed drives the strategy (and, via Splitmix, exploration episodes).
	Seed uint64
	// Strategy selects the explorer: "random" (default) or "pct".
	Strategy string
	// PCTDepth is the number of PCT priority change points (d).
	PCTDepth int
	// Bug injects a protocol defect into the lock under test.
	Bug core.Bug
	// MaxSteps bounds an episode's schedule length (0: kernel default).
	MaxSteps int
	// Watchdog force-stops a wedged episode after this wall-clock time
	// (0: 30s). A fired watchdog reports Aborted, not a violation.
	Watchdog time.Duration
}

func (o *Options) threads() int { return o.Writers + o.Readers + o.Upgraders + o.Sweepers }

func (o *Options) normalize() {
	if o.Backend == "" {
		o.Backend = "solero"
	}
	if o.Writers+o.Readers+o.Upgraders == 0 {
		o.Writers, o.Readers = 2, 2
	}
	if o.Ops <= 0 {
		o.Ops = 20
	}
	if o.Strategy == "" {
		o.Strategy = "random"
	}
	if o.PCTDepth <= 0 {
		o.PCTDepth = 3
	}
	if o.Watchdog <= 0 {
		o.Watchdog = 30 * time.Second
	}
}

func (o *Options) strategy(seed uint64) sched.Strategy {
	if o.Strategy == "pct" {
		// Horizon sized to the expected schedule length: each op costs a
		// handful of points per thread.
		return sched.PCT(seed, o.PCTDepth, 16*o.threads()*o.Ops)
	}
	return sched.RandomWalk(seed)
}

// Outcome reports one episode.
type Outcome struct {
	// Violations from the history oracle and the final-state checks;
	// empty means the episode passed.
	Violations []string
	Steps      int
	Aborted    bool
	// Decisions is the schedule that was executed, replayable via Replay.
	Decisions []uint64
	// Trace is the executed point trace (sched.FormatTrace renders it).
	Trace []sched.Step
	// Events is the recorded history length; HistoryTail renders its end.
	Events      int
	HistoryTail string
	// Watchdogs counts the scheduler's block-watchdog firings
	// (sched.Scheduler.Watchdogs); a loaded host can add firings without
	// changing the schedule.
	Watchdogs int
	// BackendStats is the backend's counter snapshot at episode end
	// (pinned-schedule tests assert the intended protocol window — e.g. a
	// monitor-table sweep skipping a pinned entry — was actually
	// exercised).
	BackendStats map[string]uint64
}

// Failed reports whether the episode found a violation.
func (out *Outcome) Failed() bool { return len(out.Violations) > 0 }

// Run executes one episode under the options' seeded strategy.
func Run(opts Options) Outcome {
	opts.normalize()
	return runWith(opts, opts.strategy(opts.Seed))
}

// Replay re-executes an episode following a recorded decision sequence.
func Replay(opts Options, dec []uint64) Outcome {
	opts.normalize()
	return runWith(opts, sched.Replay(dec))
}

// RunStrategy executes one episode under an explicit strategy (tests use
// sched.Priorities to pin an interleaving).
func RunStrategy(opts Options, strat sched.Strategy) Outcome {
	opts.normalize()
	return runWith(opts, strat)
}

func runWith(opts Options, strat sched.Strategy) Outcome {
	n := opts.threads()
	s := sched.NewScheduler(strat, opts.MaxSteps)
	rec := history.New()
	be, err := backend.New(opts.Backend, backend.Options{
		Sched:   s.Hooks(),
		History: rec,
		Bug:     opts.Bug,
		// Tiny spin tiers: under schedule injection every spin iteration
		// is a schedule point, so short loops keep episodes compact.
		Solero: &core.Config{
			Tier1: 4, Tier2: 2, Tier3: 2,
			Deflate:            !opts.NoDeflate,
			FLCTimeout:         200 * time.Microsecond,
			MaxElisionFailures: 1,
		},
		VMLock: &vmlock.Config{
			Tier1: 4, Tier2: 2, Tier3: 2,
			Deflate:    !opts.NoDeflate,
			FLCTimeout: 200 * time.Microsecond,
		},
		// One shard keeps a sweep pass to a single schedule point, and a
		// one-epoch idle window makes entries reclaimable after two
		// sweeps — the tightest schedulable deflation policy.
		Montable: &montable.Config{Shards: 1, IdleEpochs: 1},
	})
	if err != nil {
		return Outcome{Violations: []string{err.Error()}}
	}
	vm := jthread.NewVM()
	h := s.Hooks()

	// Shared state the critical sections guard. The invariant outside any
	// critical section is a == b == number of completed writes; the
	// atomics keep the harness race-detector-clean while still exposing
	// torn snapshots and lost updates.
	var a, b atomic.Uint64
	// csOwner is the immediate mutual-exclusion oracle: CAS 0 -> tid on
	// entry, tid -> 0 on exit.
	var csOwner atomic.Uint64

	enterCS := func(tid uint64) {
		if !csOwner.CompareAndSwap(0, tid) {
			rec.RecordViolation(tid, fmt.Sprintf(
				"cs oracle: entered the critical section while t%d was inside", csOwner.Load()))
		}
		rec.RecordData(history.EnterCS, tid, 0, 0)
	}
	exitCS := func(tid uint64) {
		rec.RecordData(history.ExitCS, tid, 0, 0)
		csOwner.CompareAndSwap(tid, 0)
	}
	// writeBody mutates a then b with schedule points between the
	// load/store halves: a broken lock manifests as a lost update or as a
	// torn a/b pair seen by a reader.
	writeBody := func(tid uint64) {
		x := a.Load()
		h.Point(tid, sched.PBody)
		a.Store(x + 1)
		h.Point(tid, sched.PBody)
		y := b.Load()
		b.Store(y + 1)
	}

	writer := func(t *jthread.Thread) {
		tid := t.ID()
		for i := 0; i < opts.Ops; i++ {
			be.WriteSync(t, func() {
				enterCS(tid)
				writeBody(tid)
				exitCS(tid)
			})
		}
	}
	reader := func(t *jthread.Thread) {
		tid := t.ID()
		for i := 0; i < opts.Ops; i++ {
			var ra, rb uint64
			be.ReadSync(t, func() {
				ra = a.Load()
				// Deliberate schedule-injection point inside the
				// section: the whole purpose of this harness is to
				// preempt readers mid-body (speculative for solero,
				// under the read or exclusive hold for the others).
				//solerovet:ignore
				h.Point(tid, sched.PBody)
				rb = b.Load()
			})
			// Recorded after ReadSync returns: only the final (validated
			// or lock-protected) execution's observation counts.
			rec.RecordData(history.ReadObserved, tid, ra, rb)
		}
	}
	// Upgraders use the in-place upgrade where the backend has one;
	// elsewhere they are plain writers, so the final-state write count is
	// the same for every backend.
	upgrader := func(t *jthread.Thread) {
		tid := t.ID()
		rm, hasUpgrade := be.(backend.ReadMostlyBackend)
		for i := 0; i < opts.Ops; i++ {
			if !hasUpgrade {
				be.WriteSync(t, func() {
					enterCS(tid)
					writeBody(tid)
					exitCS(tid)
				})
				continue
			}
			rm.ReadMostly(t, func(u backend.Upgrader) {
				pre := a.Load()
				//solerovet:ignore deliberate pre-upgrade injection point
				h.Point(tid, sched.PBody)
				u.BeforeWrite()
				if u.Upgraded() {
					// The in-place upgrade claims every read so far is
					// still valid; the oracle checks the claim.
					rec.RecordData(history.UpgradeObserved, tid, pre, a.Load())
				}
				enterCS(tid)
				writeBody(tid)
				exitCS(tid)
			})
		}
	}

	// Sweepers drive explicit deflation epochs against a table-backed
	// backend, one Sweep per op; against anything else they idle (the
	// role exists so the same thread mix replays across backends).
	sweeper := func(t *jthread.Thread) {
		tid := t.ID()
		tbb, ok := be.(backend.TableBacked)
		if !ok || tbb.MonitorTable() == nil {
			return
		}
		tb := tbb.MonitorTable()
		for i := 0; i < opts.Ops; i++ {
			tb.Sweep(tid)
		}
	}

	type role struct {
		t    *jthread.Thread
		body func(*jthread.Thread)
	}
	roles := make([]role, 0, n)
	for i := 0; i < opts.Writers; i++ {
		roles = append(roles, role{vm.Attach("writer"), writer})
	}
	for i := 0; i < opts.Readers; i++ {
		roles = append(roles, role{vm.Attach("reader"), reader})
	}
	for i := 0; i < opts.Upgraders; i++ {
		roles = append(roles, role{vm.Attach("upgrader"), upgrader})
	}
	for i := 0; i < opts.Sweepers; i++ {
		roles = append(roles, role{vm.Attach("sweeper"), sweeper})
	}
	// Registration from this goroutine, in role order: tids are 1..n and
	// the strategy's tiebreak order is deterministic.
	for _, r := range roles {
		s.Register(r.t.ID())
	}

	// The watchdog force-opens the gates if an episode wedges in real
	// time (a kernel bug, not a lock bug); the episode then reports
	// Aborted and its oracles are skipped as inconclusive.
	var dogFired atomic.Bool
	dog := time.AfterFunc(opts.Watchdog, func() {
		dogFired.Store(true)
		s.Stop()
	})
	var wg sync.WaitGroup
	for _, r := range roles {
		wg.Add(1)
		go func(r role) {
			defer wg.Done()
			s.ThreadStart(r.t.ID())
			r.body(r.t)
			s.ThreadDone(r.t.ID())
		}(r)
	}
	wg.Wait()
	dog.Stop()

	out := Outcome{
		Steps:        s.Steps(),
		Aborted:      s.Aborted() || dogFired.Load(),
		Decisions:    s.Decisions(),
		Trace:        s.Trace(),
		Events:       rec.Len(),
		Watchdogs:    s.Watchdogs(),
		BackendStats: be.Stats(),
	}
	if out.Aborted {
		// Gates were opened mid-run; threads finished racing for real,
		// so the oracles no longer describe a serialized episode.
		return out
	}
	out.Violations = rec.Check()
	writes := uint64((opts.Writers + opts.Upgraders) * opts.Ops)
	if av, bv := a.Load(), b.Load(); av != bv {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"final state torn: a=%d b=%d", av, bv))
	} else if av != writes {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"lost updates: final a=%d, want %d", av, writes))
	}
	if out.Failed() {
		out.HistoryTail = rec.Format(40)
	}
	return out
}

// ExploreResult reports an exploration sweep.
type ExploreResult struct {
	// Episodes actually executed.
	Episodes int
	// Failing is nil when every episode passed; otherwise the first
	// failing episode's outcome.
	Failing *Outcome
	// Episode and EpisodeSeed identify the failing episode: its schedule
	// is regenerated by running Options.Seed = EpisodeSeed.
	Episode     int
	EpisodeSeed uint64
	// Minimized is the auto-minimized failing decision sequence (replay
	// it with Replay); falls back to the raw decisions if minimization
	// could not shrink them.
	Minimized []uint64
}

// Explore runs up to episodes episodes (derived seeds Splitmix(Seed+i))
// within the wall-clock budget, stopping at the first violation, which it
// then minimizes to a short replayable schedule. progress may be nil.
func Explore(opts Options, episodes int, budget time.Duration, progress func(ep int, out *Outcome)) ExploreResult {
	opts.normalize()
	if episodes <= 0 {
		episodes = 1000
	}
	deadline := time.Now().Add(budget)
	res := ExploreResult{}
	for i := 0; i < episodes; i++ {
		if budget > 0 && !time.Now().Before(deadline) {
			break
		}
		epSeed := sched.Splitmix(opts.Seed + uint64(i))
		ep := opts
		ep.Seed = epSeed
		out := runWith(ep, ep.strategy(epSeed))
		res.Episodes++
		if progress != nil {
			progress(i, &out)
		}
		if !out.Failed() {
			continue
		}
		res.Failing, res.Episode, res.EpisodeSeed = &out, i, epSeed
		// Minimization probes run with a short watchdog: a candidate
		// prefix that wedges the run is simply not a reproducer.
		probe := ep
		probe.Watchdog = 5 * time.Second
		res.Minimized = sched.Minimize(out.Decisions, func(dec []uint64) bool {
			r := Replay(probe, dec)
			return r.Failed()
		}, 150)
		return res
	}
	return res
}
