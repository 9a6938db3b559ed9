// Package jbb is the SPECjbb2005 substitute: a warehouse-centric business
// transaction simulator whose *lock behavior* matches what the paper
// reports for SPECjbb2005 in Table 1 — each software thread drives its own
// warehouse (minimal lock contention, hence the paper's near-zero
// speculation failures), every transaction executes one synchronized
// region on the warehouse's lock, and 53.6% of those regions are
// read-only.
//
// The transaction set follows SPECjbb's TPC-C-derived operations: NewOrder
// and Payment write; OrderStatus, StockLevel, and CustomerReport only read.
// The data backing them is real — per-warehouse TreeMap stock, HashMap
// customers and orders — so read-only sections chase pointers and loop,
// exactly the workload class SOLERO (and not a raw seqlock) can elide.
package jbb

import (
	"sync/atomic"

	"repro/internal/collections/hashmap"
	"repro/internal/collections/treemap"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jthread"
	"repro/internal/workload"
)

// Transaction mix (percent). The read-only share is Table 1's 53.6%.
const (
	pctOrderStatus    = 18
	pctStockLevel     = 18
	pctCustomerReport = 18 // slightly rounded; see ReadOnlyPct

	pctNewOrder = 24
	// Payment takes the remainder (22%).
)

// ReadOnlyPct is the configured read-only share of synchronized regions.
const ReadOnlyPct = pctOrderStatus + pctStockLevel + pctCustomerReport // 54 ≈ paper's 53.6

// Sizing per warehouse.
const (
	stockItems = 512
	customers  = 128
)

// Warehouse is one warehouse's data, guarded by a single lock.
type Warehouse struct {
	guard     *workload.Guard
	stock     *treemap.Map[int64]
	customers *hashmap.Map[int64]
	orders    *hashmap.Map[int64]
	nextOrder int64 // guarded
	history   atomic.Uint64
}

func newWarehouse(impl workload.Impl, base *core.Config) *Warehouse {
	w := &Warehouse{
		guard:     workload.NewGuardConfig(impl, base),
		stock:     treemap.New[int64](),
		customers: hashmap.New[int64](customers * 2),
		orders:    hashmap.New[int64](1024),
	}
	for i := int64(0); i < stockItems; i++ {
		w.stock.Put(i, 100)
	}
	for c := int64(0); c < customers; c++ {
		w.customers.Put(c, 1000)
	}
	return w
}

// Bench is the benchmark: one warehouse per software thread.
type Bench struct {
	Impl       workload.Impl
	warehouses []*Warehouse
}

// New creates a bench with capacity for maxThreads warehouses.
func New(impl workload.Impl, maxThreads int) *Bench {
	return NewWithConfig(impl, maxThreads, nil)
}

// NewWithConfig is New with an explicit SOLERO base lock configuration for
// every warehouse guard (see workload.NewGuardConfig).
func NewWithConfig(impl workload.Impl, maxThreads int, base *core.Config) *Bench {
	b := &Bench{Impl: impl}
	for i := 0; i < maxThreads; i++ {
		b.warehouses = append(b.warehouses, newWarehouse(impl, base))
	}
	return b
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

var sink atomic.Uint64

// Worker returns the harness worker: thread i drives warehouse i.
func (b *Bench) Worker() harness.Worker {
	return func(i int, th *jthread.Thread, stop *atomic.Bool) uint64 {
		r := &rng{s: uint64(i)*77 + 1}
		var ops uint64
		for !stop.Load() {
			b.Op(th, i, r.next())
			ops++
		}
		return ops
	}
}

// Op runs one transaction on warehouse wh using rnd as the source of
// randomness — the single-step form of Worker (testing.B callers).
func (b *Bench) Op(th *jthread.Thread, wh int, rnd uint64) {
	w := b.warehouses[wh%len(b.warehouses)]
	r := &rng{s: rnd}
	switch p := rnd % 100; {
	case p < pctOrderStatus:
		w.orderStatus(th, r)
	case p < pctOrderStatus+pctStockLevel:
		w.stockLevel(th, r)
	case p < ReadOnlyPct:
		w.customerReport(th, r)
	case p < ReadOnlyPct+pctNewOrder:
		w.newOrder(th, r)
	default:
		w.payment(th, r)
	}
}

// --- read-only transactions ---

// orderStatus reads a customer's balance and their most recent order.
func (w *Warehouse) orderStatus(th *jthread.Thread, r *rng) {
	cust := int64(r.next() % customers)
	// Results leave the section through captured locals; the sink update
	// happens outside so a speculative re-execution cannot double count
	// (flagged by solerovet's specsafety otherwise).
	var bal, last int64
	w.guard.Read(th, func() {
		bal, _ = w.customers.Get(cust)
		last, _ = w.orders.Get(int64(w.history.Load()))
	})
	sink.Add(uint64(bal + last))
}

// stockLevel scans a range of stock entries below a threshold — pointer
// chasing and a loop inside the read-only section.
func (w *Warehouse) stockLevel(th *jthread.Thread, r *rng) {
	from := int64(r.next() % stockItems)
	var low int
	w.guard.Read(th, func() {
		n20 := 0
		k, ok := w.stock.CeilingKey(from)
		for n := 0; ok && n < 20; n++ {
			q, _ := w.stock.Get(k)
			if q < 50 {
				n20++
			}
			k, ok = w.stock.CeilingKey(k + 1)
		}
		low = n20
	})
	sink.Add(uint64(low))
}

// customerReport reads a few customer balances.
func (w *Warehouse) customerReport(th *jthread.Thread, r *rng) {
	base := int64(r.next() % customers)
	var out int64
	w.guard.Read(th, func() {
		total := int64(0)
		for i := int64(0); i < 5; i++ {
			b, _ := w.customers.Get((base + i) % customers)
			total += b
		}
		out = total
	})
	sink.Add(uint64(out))
}

// --- writing transactions ---

// newOrder allocates an order id, records the order, and decrements stock.
func (w *Warehouse) newOrder(th *jthread.Thread, r *rng) {
	item := int64(r.next() % stockItems)
	w.guard.Write(th, func() {
		id := w.nextOrder
		w.nextOrder++
		w.orders.Put(id%4096, item)
		q, _ := w.stock.Get(item)
		if q <= 0 {
			q = 100 // restock
		}
		w.stock.Put(item, q-1)
		w.history.Store(uint64(id % 4096))
	})
}

// payment updates a customer's balance.
func (w *Warehouse) payment(th *jthread.Thread, r *rng) {
	cust := int64(r.next() % customers)
	amount := int64(r.next()%50) + 1
	w.guard.Write(th, func() {
		bal, _ := w.customers.Get(cust)
		w.customers.Put(cust, bal-amount)
	})
}

// SoleroStats returns each warehouse guard's SOLERO counter block (empty
// for non-SOLERO impls).
func (b *Bench) SoleroStats() []*core.Stats {
	var out []*core.Stats
	for _, w := range b.warehouses {
		if st := w.guard.SoleroStats(); st != nil {
			out = append(out, st)
		}
	}
	return out
}

// Guards returns each warehouse's lock guard (backend stats export).
func (b *Bench) Guards() []*workload.Guard {
	var out []*workload.Guard
	for _, w := range b.warehouses {
		out = append(out, w.guard)
	}
	return out
}

// FailureRatio aggregates SOLERO speculation failures across warehouses.
func (b *Bench) FailureRatio() float64 {
	var attempts, failures uint64
	for _, w := range b.warehouses {
		if st := w.guard.SoleroStats(); st != nil {
			attempts += st.ElisionAttempts.Load()
			failures += st.ElisionFailures.Load()
		}
	}
	if attempts == 0 {
		return 0
	}
	return 100 * float64(failures) / float64(attempts)
}

// LockOps returns total and read-only lock operations (Table 1).
func (b *Bench) LockOps() (total, readOnly uint64) {
	for _, w := range b.warehouses {
		t, r := guardLockOps(w.guard)
		total += t
		readOnly += r
	}
	return
}

func guardLockOps(g *workload.Guard) (total, readOnly uint64) {
	if st := g.SoleroStats(); st != nil {
		writes := st.FastAcquires.Load() + st.SlowAcquires.Load()
		reads := st.ElisionAttempts.Load() + st.ReadRecursions.Load() + st.ReadFatEnters.Load()
		return writes + reads, reads
	}
	return 0, 0
}
