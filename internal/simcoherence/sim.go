// Package simcoherence is a discrete-event multicore simulator used to
// regenerate the *shape* of the paper's scalability figures (12–14) on
// hosts without 16 hardware threads. It models the one mechanism those
// figures hinge on — cache-line ownership transfer under the three lock
// protocols:
//
//   - a mutex serializes critical sections and bounces the lock line
//     exclusively between cores (one remote transfer per handoff, plus
//     data-line transfers for written data);
//   - a read-write lock lets readers overlap but charges every reader two
//     atomic read-modify-writes on a shared state line, which bounces just
//     like a mutex line;
//   - SOLERO's elided readers only *load* the lock word and data lines —
//     after the first fetch, every line is in shared state and every access
//     is a cache hit, so read-only throughput scales with cores. Writers
//     invalidate, making readers re-fetch and occasionally fail validation
//     (re-running the section), which reproduces the failure-ratio curves
//     of Figure 15.
//
// Cores execute one action at a time in global timestamp order (a
// min-clock scan over ≤ dozens of cores), so version-based conflict
// detection is exact within the model.
//
// Config.Fences adds the paper's fence axis (§3.4, Figure 10's
// WeakBarrier ablation): a memmodel.Plan whose fences are charged, in
// cycles, at the four placement points — after the acquiring RMW, before
// the releasing store, after an elided section's entry load and before its
// validating re-load. The real locks run on Go's sequentially consistent
// atomics and charge nothing; this model is the only place fences cost.
package simcoherence

import (
	"fmt"

	"repro/internal/memmodel"
)

// Protocol selects the simulated lock algorithm.
type Protocol uint8

// Protocols.
const (
	ProtoMutex Protocol = iota
	ProtoRW
	ProtoSolero
)

// String names the protocol as the paper's figures do.
func (p Protocol) String() string {
	switch p {
	case ProtoMutex:
		return "Lock"
	case ProtoRW:
		return "RWLock"
	case ProtoSolero:
		return "SOLERO"
	default:
		return "proto(?)"
	}
}

// Config parameterizes a simulation.
type Config struct {
	Protocol Protocol
	// Cores is the number of simulated hardware threads.
	Cores int
	// WritePct is the percentage of critical sections that write.
	WritePct int
	// BodyReads / BodyWrites are data-line accesses per critical section.
	BodyReads, BodyWrites int
	// ThinkCycles separates operations (application work).
	ThinkCycles int64
	// HitCost / RemoteCost are cycles for a local hit vs. a cache-line
	// transfer; AtomicExtra is the added cost of an atomic RMW.
	HitCost, RemoteCost, AtomicExtra int64
	// DataLines is the protected working set, in cache lines.
	DataLines int
	// Shards partitions the working set behind that many locks
	// (1 = the coarse benchmarks; Cores = Figure 12c's fine-grained
	// variant).
	Shards int
	// ShardsFollowCores, used with Sweep, sets Shards to the core count
	// at each point (the fine-grained variant keeps one map per thread).
	ShardsFollowCores bool
	// CoreAffineShards pins each core to shard (core mod Shards) instead
	// of picking shards randomly per operation — SPECjbb's
	// thread-per-warehouse structure.
	CoreAffineShards bool
	// FallbackAfter bounds elision retries (paper: 1).
	FallbackAfter int
	// Duration is the simulated time, in cycles.
	Duration int64
	// Fences is the fence plan charged at the §3.4 placement points
	// (fenceCycles gives each fence's cost). The zero Plan,
	// memmodel.NoFences, charges nothing. RWLock reader sections are
	// never charged: the plans describe the mutex and SOLERO protocols.
	Fences memmodel.Plan
}

// fenceCycles is the fence cost table, in cycles on the scale of
// DefaultConfig's AtomicExtra (12, an atomic RMW's added cost). Power
// fences keep the paper's ordering sync > lwsync > isync, all cheaper than
// the RMW that elision removes; x86's store→load fence is a locked
// instruction, so it costs what an RMW does.
var fenceCycles = [...]int64{
	memmodel.FenceNone:      0,
	memmodel.FenceISync:     2,
	memmodel.FenceLWSync:    4,
	memmodel.FenceSync:      10,
	memmodel.FenceStoreLoad: 12,
}

// DefaultConfig models the paper's microbenchmark regime on a Power6-like
// memory system (remote transfer ≈ 40× a hit).
func DefaultConfig() Config {
	return Config{
		Protocol:      ProtoMutex,
		Cores:         1,
		WritePct:      0,
		BodyReads:     8,
		BodyWrites:    2,
		ThinkCycles:   60,
		HitCost:       1,
		RemoteCost:    40,
		AtomicExtra:   12,
		DataLines:     64,
		Shards:        1,
		FallbackAfter: 1,
		Duration:      2_000_000,
	}
}

// Result summarizes a run.
type Result struct {
	Ops          uint64
	PerCore      []uint64
	OpsPerKCycle float64
	// Elision counters (SOLERO only).
	ElisionAttempts uint64
	ElisionFailures uint64
	Fallbacks       uint64
}

// FailureRatio is ElisionFailures/ElisionAttempts in percent.
func (r Result) FailureRatio() float64 {
	if r.ElisionAttempts == 0 {
		return 0
	}
	return 100 * float64(r.ElisionFailures) / float64(r.ElisionAttempts)
}

// lockState is one simulated lock (and its cache line).
type lockState struct {
	held    bool
	owner   int
	version uint64
	// lastChange is the time of the last write to the lock line (for
	// modeling refetches).
	lastChange int64
	readers    int // RW mode
	wheld      bool
	lastRMWBy  int
	// lineFreeAt serializes exclusive ownership of the lock line: an RMW
	// cannot begin until the previous owner's transfer window ends. This
	// is what bounds global RMW throughput on a contended line.
	lineFreeAt int64
}

// lineState is one data cache line.
type lineState struct {
	lastWriteTime int64
	lastToucher   int
}

type corePhase uint8

const (
	phaseThink corePhase = iota
	phaseAcquire
	phaseBody
	phaseRelease
	// SOLERO reader phases.
	phaseReadEnter
	phaseReadBody
	phaseReadValidate
	// RW reader phases.
	phaseRWReadAcquire
	phaseRWReadBody
	phaseRWReadRelease
)

type coreState struct {
	clock   int64
	phase   corePhase
	rng     uint64
	ops     uint64
	isWrite bool
	shard   int
	bodyIdx int
	// SOLERO speculation state.
	snapVersion uint64
	failures    int
	// Per-line last fetch times (lock lines are indexed after data
	// lines).
	fetched []int64
}

func (c *coreState) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Sim is a running simulation.
type Sim struct {
	cfg   Config
	locks []lockState
	lines []lineState
	cores []coreState
	res   Result
}

// New validates the config and builds a simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.Cores < 1 || cfg.Shards < 1 || cfg.DataLines < cfg.Shards {
		return nil, fmt.Errorf("simcoherence: bad config (cores=%d shards=%d lines=%d)", cfg.Cores, cfg.Shards, cfg.DataLines)
	}
	if cfg.FallbackAfter < 1 {
		cfg.FallbackAfter = 1
	}
	s := &Sim{
		cfg:   cfg,
		locks: make([]lockState, cfg.Shards),
		lines: make([]lineState, cfg.DataLines),
		cores: make([]coreState, cfg.Cores),
	}
	for i := range s.cores {
		s.cores[i] = coreState{
			rng:     uint64(i)*0x1234567 + 99,
			fetched: make([]int64, cfg.DataLines+cfg.Shards),
		}
		for j := range s.cores[i].fetched {
			s.cores[i].fetched[j] = -1
		}
	}
	return s, nil
}

// Run executes the simulation to completion and returns the result.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	for {
		// Pick the core with the smallest clock still inside the
		// simulated window.
		min := -1
		for i := range s.cores {
			if s.cores[i].clock >= cfg.Duration {
				continue
			}
			if min < 0 || s.cores[i].clock < s.cores[min].clock {
				min = i
			}
		}
		if min < 0 {
			break
		}
		s.step(min)
	}
	s.res.PerCore = make([]uint64, cfg.Cores)
	for i := range s.cores {
		s.res.PerCore[i] = s.cores[i].ops
		s.res.Ops += s.cores[i].ops
	}
	s.res.OpsPerKCycle = float64(s.res.Ops) / float64(cfg.Duration) * 1000
	return s.res, nil
}

// lockLineIndex maps a shard's lock to its cache-line slot in fetched.
func (s *Sim) lockLineIndex(shard int) int { return s.cfg.DataLines + shard }

// readLockLine charges a load of the lock word for core ci.
func (s *Sim) readLockLine(ci, shard int) int64 {
	c := &s.cores[ci]
	li := s.lockLineIndex(shard)
	if s.locks[shard].lastChange > c.fetched[li] {
		c.fetched[li] = c.clock
		return s.cfg.RemoteCost
	}
	return s.cfg.HitCost
}

// rmwLockLine charges an atomic RMW on the lock word (invalidates others).
// RMWs on one line are serialized by exclusive ownership: the caller may
// have to wait for the previous owner's transfer window.
func (s *Sim) rmwLockLine(ci, shard int) int64 {
	c := &s.cores[ci]
	lk := &s.locks[shard]
	li := s.lockLineIndex(shard)
	start := c.clock
	if lk.lineFreeAt > start {
		start = lk.lineFreeAt
	}
	cost := s.cfg.AtomicExtra
	if lk.lastRMWBy != ci || lk.lastChange > c.fetched[li] {
		cost += s.cfg.RemoteCost
	} else {
		cost += s.cfg.HitCost
	}
	lk.lastRMWBy = ci
	lk.lastChange = start
	lk.lineFreeAt = start + cost
	c.fetched[li] = start
	return (start - c.clock) + cost
}

func (s *Sim) step(ci int) {
	c := &s.cores[ci]
	cfg := &s.cfg
	switch c.phase {
	case phaseThink:
		c.clock += cfg.ThinkCycles
		x := c.next()
		c.isWrite = int(x%100) < cfg.WritePct
		if cfg.CoreAffineShards {
			c.shard = ci % cfg.Shards
		} else {
			c.shard = int(x >> 32 % uint64(cfg.Shards))
		}
		c.bodyIdx = 0
		c.failures = 0
		switch {
		case cfg.Protocol == ProtoSolero && !c.isWrite:
			c.phase = phaseReadEnter
		case cfg.Protocol == ProtoRW && !c.isWrite:
			c.phase = phaseRWReadAcquire
		default:
			c.phase = phaseAcquire
		}

	case phaseAcquire:
		lk := &s.locks[c.shard]
		if lk.held || lk.readers > 0 || lk.wheld {
			// Spin: re-probe the line after a short backoff.
			c.clock += s.readLockLine(ci, c.shard) + 8
			return
		}
		c.clock += s.rmwLockLine(ci, c.shard) + fenceCycles[cfg.Fences.WriteAcquire]
		lk.held = true
		lk.wheld = true
		lk.owner = ci
		c.phase = phaseBody

	case phaseBody:
		accesses := cfg.BodyReads
		if c.isWrite {
			accesses += cfg.BodyWrites
		}
		if c.bodyIdx >= accesses {
			c.clock += fenceCycles[cfg.Fences.WriteRelease]
			c.phase = phaseRelease
			return
		}
		line := s.pickLine(c)
		writing := c.isWrite && c.bodyIdx >= cfg.BodyReads
		c.clock += s.accessLine(ci, line, writing)
		c.bodyIdx++

	case phaseRelease:
		lk := &s.locks[c.shard]
		lk.held = false
		lk.wheld = false
		lk.version++
		lk.lastChange = c.clock
		// The releasing store leaves the line exclusively ours — no
		// self-invalidation.
		c.fetched[s.lockLineIndex(c.shard)] = c.clock
		c.clock += cfg.HitCost
		c.ops++
		c.phase = phaseThink

	case phaseReadEnter:
		lk := &s.locks[c.shard]
		if lk.held {
			// Figure 8's slow read entry: wait for the writer.
			c.clock += s.readLockLine(ci, c.shard) + 8
			return
		}
		c.clock += s.readLockLine(ci, c.shard) + fenceCycles[cfg.Fences.ReadEnter]
		c.snapVersion = lk.version
		c.bodyIdx = 0
		c.phase = phaseReadBody
		s.res.ElisionAttempts++

	case phaseReadBody:
		if c.bodyIdx >= cfg.BodyReads {
			c.clock += fenceCycles[cfg.Fences.ReadExit]
			c.phase = phaseReadValidate
			return
		}
		line := s.pickLine(c)
		c.clock += s.accessLine(ci, line, false)
		c.bodyIdx++

	case phaseReadValidate:
		lk := &s.locks[c.shard]
		c.clock += s.readLockLine(ci, c.shard)
		if lk.version == c.snapVersion && !lk.held {
			c.ops++
			c.phase = phaseThink
			return
		}
		s.res.ElisionFailures++
		c.failures++
		if c.failures >= cfg.FallbackAfter {
			// Fall back to real acquisition (Figure 7).
			s.res.Fallbacks++
			c.isWrite = false
			c.bodyIdx = 0
			c.phase = phaseAcquire
			return
		}
		c.bodyIdx = 0
		c.phase = phaseReadEnter

	case phaseRWReadAcquire:
		lk := &s.locks[c.shard]
		if lk.wheld {
			c.clock += s.readLockLine(ci, c.shard) + 8
			return
		}
		// Reader entry is an RMW on the shared state line.
		c.clock += s.rmwLockLine(ci, c.shard)
		lk.readers++
		c.bodyIdx = 0
		c.phase = phaseRWReadBody

	case phaseRWReadBody:
		if c.bodyIdx >= cfg.BodyReads {
			c.phase = phaseRWReadRelease
			return
		}
		line := s.pickLine(c)
		c.clock += s.accessLine(ci, line, false)
		c.bodyIdx++

	case phaseRWReadRelease:
		lk := &s.locks[c.shard]
		c.clock += s.rmwLockLine(ci, c.shard)
		lk.readers--
		c.ops++
		c.phase = phaseThink
	}
}

// pickLine selects a data line within the core's shard partition.
func (s *Sim) pickLine(c *coreState) int {
	perShard := s.cfg.DataLines / s.cfg.Shards
	base := c.shard * perShard
	return base + int(c.next()%uint64(perShard))
}

// accessLine charges one data-line access.
func (s *Sim) accessLine(ci, line int, write bool) int64 {
	c := &s.cores[ci]
	ln := &s.lines[line]
	var cost int64
	if write {
		if ln.lastToucher != ci {
			cost = s.cfg.RemoteCost // invalidate / fetch exclusive
		} else {
			cost = s.cfg.HitCost
		}
		ln.lastWriteTime = c.clock
		ln.lastToucher = ci
	} else {
		if ln.lastWriteTime > c.fetched[line] {
			cost = s.cfg.RemoteCost
			c.fetched[line] = c.clock
		} else {
			cost = s.cfg.HitCost
		}
		ln.lastToucher = ci
	}
	return cost
}

// Sweep runs the config at each core count, returning ops/kcycle per point.
func Sweep(cfg Config, coreCounts []int) ([]Result, error) {
	out := make([]Result, len(coreCounts))
	for i, n := range coreCounts {
		c := cfg
		c.Cores = n
		if cfg.ShardsFollowCores {
			c.Shards = n
			if c.DataLines < c.Shards {
				c.DataLines = c.Shards
			}
		}
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
