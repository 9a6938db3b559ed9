package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/solero"
	"repro/solero/rmap"
)

// The ladder times the read path one layer at a time on one thread with no
// contention. Every row runs the same body (one atomic load) so that rows
// differ only by the layers wrapped around it; the lockword, stats and
// specframe rows each add one layer to the row before. README.md maps every
// row to the end-to-end metric it should move.

type ladderRow struct {
	name string
	run  func(n int)
}

// specFrame is the speculative frame of runSpeculative: a pushed frame
// popped by defer, and a recover handler.
func specFrame(t *solero.Thread, word *atomic.Uint64, v uint64, body func()) (ok bool) {
	t.PushSpec(word, v)
	defer t.PopSpec()
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	body()
	return true
}

func ladderRows(seed int64) []ladderRow {
	vm := solero.NewVM()
	t := vm.Attach("ladder")
	var cell atomic.Int64
	var sink int64
	body := func() { sink += cell.Load() }
	bodyV := func() int64 { return cell.Load() }

	var seq solero.SeqLock
	var word atomic.Uint64
	st := stats.NewStriped(stats.DefaultStripeCount())
	stripe := t.StripeIndex()
	validate := func() {
		v := word.Load()
		if lockword.SoleroFree(v) {
			body()
			if word.Load() != v {
				panic("ladder: lock word changed without a writer")
			}
		}
	}

	lean := core.NewSectionRegistry(false, 0, nil).Seed("ladder:read", core.ProofElidable, true, 1)
	mcfg := *core.DefaultConfig
	mcfg.Metrics = metrics.New(0)
	readMostly := func(*core.Section) { body() }

	keys := genUniform(keyCount, func(*rand.Rand) opCode { return opRead })(seed, 0).keys
	rm := rmap.New[int64](16, nil)
	for _, k := range keys {
		rm.Put(t, k, k<<seqBits)
	}

	return []ladderRow{
		{"ladder.seqlock_read_ns", func(n int) {
			for range n {
				seq.Read(body)
			}
		}},
		{"ladder.lockword_validate_ns", func(n int) {
			for range n {
				validate()
			}
		}},
		{"ladder.stats_add_ns", func(n int) {
			for range n {
				st.Add(stripe, 1) // elision attempt
				validate()
				st.Add(stripe, 1) // elision success
			}
		}},
		{"ladder.jthread_specframe_ns", func(n int) {
			for range n {
				st.Add(stripe, 1)
				v := word.Load()
				if lockword.SoleroFree(v) && specFrame(t, &word, v, body) && word.Load() == v {
					st.Add(stripe, 1)
				}
			}
		}},
		{"ladder.core_readonly_lean_ns", func(n int) {
			l := solero.NewLock(nil)
			for range n {
				l.ReadOnlySection(t, lean, body)
			}
		}},
		{"ladder.core_readonly_ns", func(n int) {
			l := solero.NewLock(nil)
			for range n {
				l.ReadOnly(t, body)
			}
		}},
		{"ladder.solero_readonly_ns", func(n int) {
			l := solero.NewLock(nil)
			for range n {
				sink += solero.ReadOnly(l, t, bodyV)
			}
		}},
		{"ladder.core_readonly_metrics_ns", func(n int) {
			l := core.New(&mcfg)
			for range n {
				l.ReadOnly(t, body)
			}
		}},
		{"ladder.core_readmostly_ns", func(n int) {
			l := solero.NewLock(nil)
			for range n {
				l.ReadMostly(t, readMostly)
			}
		}},
		{"ladder.rmap_get_ns", func(n int) {
			for i := range n {
				v, _ := rm.Get(t, keys[i&(keyCount-1)])
				sink += v
			}
		}},
		{"ladder.core_write_ns", func(n int) {
			l := solero.NewLock(nil)
			for range n {
				l.Sync(t, body)
			}
		}},
		{"ladder.vmlock_sync_ns", func(n int) {
			l := solero.NewMonitorLock(nil)
			for range n {
				l.Sync(t, body)
			}
		}},
	}
}

// Each row is timed in ladderChunks chunks of about ladderChunk; a row
// reports the median chunk's ns/op.
const (
	ladderChunks = 5
	ladderChunk  = 500 * time.Millisecond
)

func runLadder(seed int64) map[string]float64 {
	out := map[string]float64{}
	for _, row := range ladderRows(seed) {
		const probe = 1000
		start := time.Now()
		row.run(probe)
		per := max(time.Since(start)/probe, 1)
		n := max(int(ladderChunk/per), probe)
		ns := make([]float64, ladderChunks)
		for i := range ns {
			start := time.Now()
			row.run(n)
			ns[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
		}
		out[row.name] = median(ns)
	}
	return out
}
