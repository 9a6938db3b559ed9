// Command solerocheck checks the SOLERO protocol two ways.
//
// Model mode (default) exhaustively explores an abstract model of the
// protocol for a given thread mix, and can demonstrate that the checker
// catches known protocol bugs:
//
//	solerocheck -writers 2 -readers 2
//	solerocheck -writers 1 -readers 1 -mutate no-counter-bump
//	solerocheck -mutate deflate-stale-counter   # adds the inflator it needs
//
// Schedule mode (-sched) points the schedule-injection kernel at the
// *real* implementation: seeded strategies explore interleavings of
// writer/reader/upgrader threads over one core.Lock, every run is
// oracle-checked against the same invariants, and a failing schedule is
// minimized and printed with the exact command that replays it:
//
//	solerocheck -sched -seed 1 -episodes 50
//	solerocheck -sched -strategy pct -duration 30s
//	solerocheck -sched -backend rwlock -readers 2    # any internal/backend name
//	solerocheck -sched -bug no-counter-bump          # must fail (CI inverts it)
//	solerocheck -sched -seed 123 -replay 1,1,2,3,1   # replay a printed schedule
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/modelcheck"
	"repro/internal/sched"
	"repro/internal/schedcheck"
)

var mutations = map[string]modelcheck.Mutation{
	"none":                  modelcheck.MutNone,
	"no-counter-bump":       modelcheck.MutNoCounterBump,
	"no-validate":           modelcheck.MutNoValidate,
	"blind-upgrade":         modelcheck.MutBlindUpgrade,
	"validate-ignores-held": modelcheck.MutValidateIgnoresHeld,
	"deflate-stale-counter": modelcheck.MutDeflateStaleCounter,
}

var bugs = map[string]core.Bug{
	"none":            core.BugNone,
	"no-counter-bump": core.BugNoCounterBump,
}

// mutationThreads names the threads each mutation's bug needs beyond the
// default mix (one writer, two readers): a blind upgrade is unsound only
// against a writer, a stale deflation counter only across an inflation. A
// thread-count flag given on the command line wins.
var mutationThreads = map[string]map[string]int{
	"blind-upgrade":         {"writers": 1, "upgraders": 1},
	"deflate-stale-counter": {"inflators": 1},
}

func main() { os.Exit(run(os.Args[1:])) }

// run parses args and runs the chosen mode, returning the exit code: 0 all
// safe, 1 an invariant violated, 2 a usage error or an inconclusive replay.
func run(args []string) int {
	fs := flag.NewFlagSet("solerocheck", flag.ContinueOnError)
	schedMode := fs.Bool("sched", false, "schedule-injection mode: explore the real implementation")
	writers := fs.Int("writers", 0, "writer threads (model default 1, sched default 2)")
	readers := fs.Int("readers", 2, "speculative reader threads")
	upgraders := fs.Int("upgraders", 0, "read-mostly upgrader threads")
	sweepers := fs.Int("sweepers", 0, "sched: monitor-table sweeper threads (vmlock and solero)")
	noDeflate := fs.Bool("nodeflate", false, "sched: disable on-release deflation (sweeper-only demotion)")
	inflators := fs.Int("inflators", 0, "inflate/deflate threads (model mode only)")
	retries := fs.Int("retries", 1, "speculation retries before fallback (paper: 1)")
	mutate := fs.String("mutate", "none", "model mutation: none|no-counter-bump|no-validate|blind-upgrade|validate-ignores-held|deflate-stale-counter (adds the threads it needs)")

	seed := fs.Uint64("seed", 1, "sched: base seed (episode i runs under Splitmix(seed+i))")
	episodes := fs.Int("episodes", 100, "sched: max episodes to explore")
	duration := fs.Duration("duration", 0, "sched: wall-clock budget (0: episodes only)")
	strategy := fs.String("strategy", "random", "sched: exploration strategy: random|pct")
	pctD := fs.Int("pct-d", 3, "sched: PCT priority change points")
	ops := fs.Int("ops", 20, "sched: critical sections per thread")
	bugName := fs.String("bug", "none", "sched: inject a protocol bug: none|no-counter-bump")
	backendName := fs.String("backend", "solero", "sched: lock backend under test (internal/backend name: vmlock|rwlock|solero)")
	replay := fs.String("replay", "", "sched: replay a recorded decision sequence (comma list) instead of exploring")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *schedMode {
		bug, ok := bugs[*bugName]
		if !ok {
			fmt.Fprintf(os.Stderr, "solerocheck: unknown bug %q\n", *bugName)
			return 2
		}
		w := *writers
		if w == 0 && *upgraders == 0 {
			w = 2
		}
		opts := schedcheck.Options{
			Backend: *backendName,
			Writers: w, Readers: *readers, Upgraders: *upgraders,
			Sweepers: *sweepers, NoDeflate: *noDeflate,
			Ops: *ops, Seed: *seed, Strategy: *strategy, PCTDepth: *pctD, Bug: bug,
		}
		return runSched(opts, *replay, *episodes, *duration)
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for name, n := range mutationThreads[*mutate] {
		if given[name] {
			continue
		}
		if err := fs.Set(name, strconv.Itoa(n)); err != nil {
			panic(err) // a mutationThreads entry names no flag
		}
	}
	return runModel(*writers, *readers, *upgraders, *inflators, *retries, *mutate)
}

func runModel(writers, readers, upgraders, inflators, retries int, mutate string) int {
	if writers == 0 && upgraders == 0 && inflators == 0 {
		writers = 1
	}
	mut, ok := mutations[mutate]
	if !ok {
		fmt.Fprintf(os.Stderr, "solerocheck: unknown mutation %q\n", mutate)
		return 2
	}
	res, err := modelcheck.Run(modelcheck.Config{
		Writers:    writers,
		Readers:    readers,
		Upgraders:  upgraders,
		Inflators:  inflators,
		MaxRetries: uint8(retries),
		Mutation:   mut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "solerocheck: %v\n", err)
		return 2
	}
	fmt.Printf("explored %d states (writers=%d readers=%d upgraders=%d inflators=%d retries=%d mutation=%s)\n",
		res.States, writers, readers, upgraders, inflators, retries, mutate)
	if res.Ok() {
		fmt.Println("all interleavings safe: mutual exclusion, reader soundness, upgrade soundness, counter monotonicity")
		return 0
	}
	fmt.Printf("%d invariant violations:\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println("  " + v)
	}
	return 1
}

func runSched(opts schedcheck.Options, replay string, episodes int, budget time.Duration) int {
	if replay != "" {
		dec, err := sched.ParseDecisions(replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solerocheck: %v\n", err)
			return 2
		}
		out := schedcheck.Replay(opts, dec)
		fmt.Printf("replayed %d decisions: steps=%d events=%d\n", len(dec), out.Steps, out.Events)
		if out.Aborted {
			fmt.Println("replay aborted (watchdog or step budget) — inconclusive")
			return 2
		}
		if !out.Failed() {
			fmt.Println("replay passed: no invariant violated")
			return 0
		}
		reportFailure(opts, &out, out.Decisions, "replay")
		return 1
	}

	start := time.Now()
	res := schedcheck.Explore(opts, episodes, budget, nil)
	elapsed := time.Since(start).Round(time.Millisecond)
	fmt.Printf("explored %d episodes in %v (backend=%s writers=%d readers=%d upgraders=%d sweepers=%d ops=%d strategy=%s seed=%d nodeflate=%v)\n",
		res.Episodes, elapsed, opts.Backend, opts.Writers, opts.Readers, opts.Upgraders,
		opts.Sweepers, opts.Ops, opts.Strategy, opts.Seed, opts.NoDeflate)
	if res.Failing == nil {
		fmt.Println("all explored schedules safe: mutual exclusion, reader soundness, upgrade soundness, counter monotonicity")
		return 0
	}

	fmt.Printf("episode %d (seed %d) violated the protocol invariants:\n", res.Episode, res.EpisodeSeed)
	ep := opts
	ep.Seed = res.EpisodeSeed
	// Re-run the minimized schedule to demonstrate on the spot that the
	// failure is deterministic; when it reproduces (the normal case),
	// report that replay — its trace is the one the printed replay
	// command regenerates.
	again := schedcheck.Replay(ep, res.Minimized)
	if again.Failed() {
		reportFailure(ep, &again, res.Minimized, "minimized")
		fmt.Println("minimized schedule re-verified: replay reproduces the violation")
	} else {
		reportFailure(ep, res.Failing, res.Failing.Decisions, "recorded")
		fmt.Println("WARNING: minimized schedule did not reproduce on replay; recorded schedule reported instead")
	}
	return 1
}

func reportFailure(opts schedcheck.Options, out *schedcheck.Outcome, dec []uint64, what string) {
	for _, v := range out.Violations {
		fmt.Println("  " + v)
	}
	fmt.Printf("%s schedule (%d decisions): %s\n", what, len(dec), sched.FormatDecisions(dec))
	fmt.Printf("point trace: %s\n", sched.FormatTrace(out.Trace))
	if out.HistoryTail != "" {
		fmt.Printf("history tail:\n%s", out.HistoryTail)
	}
	fmt.Printf("replay with: solerocheck -sched -seed %d -writers %d -readers %d -upgraders %d -ops %d",
		opts.Seed, opts.Writers, opts.Readers, opts.Upgraders, opts.Ops)
	if opts.Backend != "" && opts.Backend != "solero" {
		fmt.Printf(" -backend %s", opts.Backend)
	}
	if opts.Sweepers > 0 {
		fmt.Printf(" -sweepers %d", opts.Sweepers)
	}
	if opts.NoDeflate {
		fmt.Print(" -nodeflate")
	}
	if opts.Bug != core.BugNone {
		fmt.Print(" -bug no-counter-bump")
	}
	fmt.Printf(" -replay %s\n", sched.FormatDecisions(dec))
}
