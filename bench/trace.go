package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded in benchmark code around each call into the system:
// op -> lock.read | lock.write -> one body span per execution of the closure
// handed to the lock, so a retried speculation shows several body spans.
// rmap runs closures of its own, so rw5-rmap spans stop at the lock call.

// traceEvery samples 1 in traceEvery ops; ringOps bounds the spans kept per
// worker for the Chrome trace file (derived metrics use every sampled op).
const (
	traceEvery = 64
	ringOps    = 4096
	maxBodies  = 8
)

type span struct{ start, end int64 }

type opRec struct {
	id     uint64
	write  bool
	op     span
	lock   span
	nbody  int
	bodyNs int64
	bodies [maxBodies]span
}

// tracer records one worker's sampled spans into a preallocated ring.
type tracer struct {
	base time.Time
	cur  opRec
	ring []opRec
	n    int // ops recorded; the ring holds the last min(n, ringOps)

	readSelf, writeSelf, body hist
	reads, readBodies         uint64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, ring: make([]opRec, ringOps)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(id uint64, start time.Time) {
	t.cur = opRec{id: id, op: span{start: int64(start.Sub(t.base))}}
}

func (t *tracer) lockBegin() { t.cur.lock.start = t.now() }
func (t *tracer) lockEnd()   { t.cur.lock.end = t.now() }
func (t *tracer) bodyBegin() int64 {
	return t.now()
}

func (t *tracer) bodyEnd(start int64) {
	end := t.now()
	if t.cur.nbody < maxBodies {
		t.cur.bodies[t.cur.nbody] = span{start, end}
	}
	t.cur.nbody++
	t.cur.bodyNs += end - start
}

func (t *tracer) end(write bool) {
	c := &t.cur
	c.op.end = t.now()
	c.write = write
	self := c.lock.end - c.lock.start - c.bodyNs
	if write {
		t.writeSelf.record(self)
	} else {
		t.readSelf.record(self)
		t.reads++
		t.readBodies += uint64(c.nbody)
		for _, b := range c.bodies[:min(c.nbody, maxBodies)] {
			t.body.record(b.end - b.start)
		}
	}
	t.ring[t.n%ringOps] = *c
	t.n++
}

// traceMetrics derives the per-layer span metrics from all workers' tracers.
func traceMetrics(trs []*tracer) map[string]float64 {
	var readSelf, writeSelf, body hist
	var reads, bodies uint64
	for _, t := range trs {
		readSelf.merge(&t.readSelf)
		writeSelf.merge(&t.writeSelf)
		body.merge(&t.body)
		reads += t.reads
		bodies += t.readBodies
	}
	execs := 0.0
	if reads > 0 {
		execs = float64(bodies) / float64(reads)
	}
	return map[string]float64{
		"read.lock_self_ns":      readSelf.quantile(0.5),
		"read.body_ns":           body.quantile(0.5),
		"read.body_execs":        execs,
		"write.lock_self_p50_ns": writeSelf.quantile(0.5),
		"write.lock_self_p99_ns": writeSelf.quantile(0.99),
	}
}

// writeChromeTrace writes the rings as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Timestamps are microseconds.
func writeChromeTrace(path, workload string, trs []*tracer) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q},"traceEvents":[`, workload)
	first := true
	event := func(tid int, name string, s span, id uint64) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
			name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, id)
	}
	for tid, t := range trs {
		n := min(t.n, ringOps)
		for i := t.n - n; i < t.n; i++ {
			r := &t.ring[i%ringOps]
			event(tid, "op", r.op, r.id)
			lock := "lock.read"
			if r.write {
				lock = "lock.write"
			}
			event(tid, lock, r.lock, r.id)
			for _, b := range r.bodies[:min(r.nbody, maxBodies)] {
				event(tid, "body", b, r.id)
			}
		}
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
