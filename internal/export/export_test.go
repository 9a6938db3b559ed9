package export

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/metrics"
)

// testSource builds a deterministic source: fixed registry contents and a
// fixed counter block. The two waits' dwells are clock readings, so the
// golden pins their counts, not their buckets.
func testSource() *Source {
	reg := metrics.New(1)
	reg.AddOps(0, 1000)
	reg.RecordAbort(0, metrics.AbortWriterRaced)
	reg.RecordAbort(0, metrics.AbortWriterRaced)
	reg.RecordAbort(0, metrics.AbortInflated)
	reg.CSDuration.Record(0, 100)
	reg.CSDuration.Record(0, 5000)
	reg.EndWait(0, metrics.WaitAcquire, reg.StartWait())
	reg.EndWait(0, metrics.WaitMonitorPark, reg.StartWait())
	reg.RecordFactDivergence(0)
	return &Source{
		Benchmark: "hashmap",
		Backend:   "solero",
		Threads:   4,
		Registry:  reg,
		Counters: func() map[string]uint64 {
			return map[string]uint64{
				"elisionSuccesses": 997,
				"elisionFailures":  3,
				"fallbacks":        3,
			}
		},
		FailureRatio: func() float64 { return 0.3 },
	}
}

// TestPrometheusGolden pins the exposition format exactly: counter families,
// abort taxonomy labels, and histogram buckets with 2^k-1 le bounds.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := testSource().Prometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	const golden = `# HELP solero_ops_total Completed benchmark operations.
# TYPE solero_ops_total counter
solero_ops_total 1000
# HELP solero_aborts_total Failed or preempted elisions by cause.
# TYPE solero_aborts_total counter
solero_aborts_total{cause="async-abort"} 0
solero_aborts_total{cause="gate-park"} 0
solero_aborts_total{cause="inflated"} 1
solero_aborts_total{cause="lockbit-set"} 0
solero_aborts_total{cause="monitor-park"} 1
solero_aborts_total{cause="recursion-overflow"} 0
solero_aborts_total{cause="sweep-stall"} 0
solero_aborts_total{cause="writer-raced"} 2
# HELP solero_protocol_events_total SOLERO protocol event counters.
# TYPE solero_protocol_events_total counter
solero_protocol_events_total{event="elision_failures"} 3
solero_protocol_events_total{event="elision_successes"} 997
solero_protocol_events_total{event="fallbacks"} 3
`
	if !strings.HasPrefix(got, golden) {
		t.Fatalf("exposition header mismatch:\n--- got ---\n%s\n--- want prefix ---\n%s", got, golden)
	}
	// The cs_duration histogram: 100ns lands under le=255, both samples
	// under le=8191 (2^13-1 is not a ladder bound; 5000 < 16383).
	for _, line := range []string{
		`solero_cs_duration_nanoseconds_bucket{le="255"} 1`,
		`solero_cs_duration_nanoseconds_bucket{le="16383"} 2`,
		`solero_cs_duration_nanoseconds_bucket{le="+Inf"} 2`,
		`solero_cs_duration_nanoseconds_count 2`,
		`solero_acquire_wait_nanoseconds_count 1`,
		`solero_park_dwell_nanoseconds_count 1`,
		`solero_spin_dwell_nanoseconds_count 0`,
		`solero_fact_divergences_total 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q", line)
		}
	}
	// cs_duration sum is exact: the histogram sums raw values, not buckets.
	if !strings.Contains(got, "solero_cs_duration_nanoseconds_sum 5100\n") {
		t.Errorf("wrong histogram sum:\n%s", got)
	}
}

func TestCamelToSnake(t *testing.T) {
	for in, want := range map[string]string{
		"elisionSuccesses": "elision_successes",
		"fallbacks":        "fallbacks",
		"fLCWaits":         "f_l_c_waits",
	} {
		if got := camelToSnake(in); got != want {
			t.Errorf("camelToSnake(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPerfettoRoundTrip records protocol events, exports them, and checks
// the JSON parses back with valid trace-event fields named by history kind.
func TestPerfettoRoundTrip(t *testing.T) {
	r := history.NewTail(16)
	for i := uint64(0); i < 20; i++ { // overflow the tail: 4 dropped
		r.Record(history.ReadSuccess, i%3, i)
	}
	data, err := Perfetto(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc PerfettoTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 16 {
		t.Fatalf("exported %d events, want 16", len(doc.TraceEvents))
	}
	var lastTS float64 = -1
	for i, e := range doc.TraceEvents {
		if e.Phase != "i" {
			t.Fatalf("event %d: ph = %q, want \"i\"", i, e.Phase)
		}
		if e.PID != 1 {
			t.Fatalf("event %d: pid = %d", i, e.PID)
		}
		if e.Name != "read-ok" {
			t.Fatalf("event %d: name = %q", i, e.Name)
		}
		if e.TS < lastTS {
			t.Fatalf("event %d: ts regressed (%f < %f)", i, e.TS, lastTS)
		}
		if want := uint64(4 + i); e.Args.Seq != want {
			t.Fatalf("event %d: seq %d, want %d (the last 16 of 20)", i, e.Args.Seq, want)
		}
		lastTS = e.TS
	}
	if doc.OtherData["dropped"] != "4" || doc.OtherData["recorded"] != "20" {
		t.Fatalf("otherData = %v, want dropped 4 of 20 recorded", doc.OtherData)
	}
	// A nil log still yields a valid, empty document.
	data, err = Perfetto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.TraceEvents == nil {
		t.Fatalf("nil-log export invalid: %v", err)
	}
}

// TestBundleSchema round-trips the snapshot schema and checks the stable
// fields consumers key on.
func TestBundleSchema(t *testing.T) {
	s := testSource()
	s.History = history.NewTail(16)
	for i := uint64(0); i < 20; i++ {
		s.History.Record(history.Release, 1, i)
	}

	data, err := s.Bundle(12345.5).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var got Bundle
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if got.Schema != SnapshotSchema {
		t.Fatalf("schema = %q", got.Schema)
	}
	if got.Benchmark != "hashmap" || got.Threads != 4 || got.OpsPerSec != 12345.5 {
		t.Fatalf("identity fields wrong: %+v", got)
	}
	if got.Ops != 1000 || got.AbortCauses["writer-raced"] != 2 {
		t.Fatalf("counters wrong: %+v", got)
	}
	if got.Counters["elisionSuccesses"] != 997 {
		t.Fatalf("protocol counters missing: %+v", got.Counters)
	}
	h, ok := got.Histograms[metrics.HistCSDuration]
	if !ok || h.Count != 2 || h.MaxNs != 5000 || h.P99Ns < 5000 {
		t.Fatalf("cs_duration summary wrong: %+v", h)
	}
	if got.TraceRecorded != 20 || got.TraceDropped != 4 {
		t.Fatalf("trace accounting wrong: recorded=%d dropped=%d", got.TraceRecorded, got.TraceDropped)
	}
	if got.FailureRatioPct != 0.3 {
		t.Fatalf("failure ratio = %f", got.FailureRatioPct)
	}
}

// TestServeEndpoints drives the HTTP mux end to end.
func TestServeEndpoints(t *testing.T) {
	s := testSource()
	s.History = history.NewTail(16)
	s.History.Record(history.Inflate, 2, 0xabc)
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	metricsText := get("/metrics")
	for _, want := range []string{
		"solero_ops_total 1000",
		`solero_aborts_total{cause="writer-raced"} 2`,
		"solero_cs_duration_nanoseconds_bucket",
		"solero_trace_events_dropped_total 0",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["solero"]; !ok {
		t.Fatalf("/debug/vars missing the solero bundle")
	}

	var snap Bundle
	if err := json.Unmarshal([]byte(get("/snapshot.json")), &snap); err != nil {
		t.Fatalf("/snapshot.json: %v", err)
	}
	if snap.Schema != SnapshotSchema {
		t.Fatalf("/snapshot.json schema = %q", snap.Schema)
	}

	var doc PerfettoTrace
	if err := json.Unmarshal([]byte(get("/trace.json")), &doc); err != nil {
		t.Fatalf("/trace.json: %v", err)
	}
	// The served trace leads with the two "M"-phase process-metadata
	// events (backend name + gomaxprocs label), then the protocol instant.
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "inflate" {
		t.Fatalf("/trace.json events = %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[0].Name != "process_name" || doc.TraceEvents[0].Phase != "M" ||
		doc.TraceEvents[0].Args.Name != "solero/solero" {
		t.Fatalf("/trace.json process_name metadata = %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Name != "process_labels" ||
		!strings.Contains(doc.TraceEvents[1].Args.Labels, "backend=solero") ||
		!strings.Contains(doc.TraceEvents[1].Args.Labels, "gomaxprocs=") {
		t.Fatalf("/trace.json process_labels metadata = %+v", doc.TraceEvents[1])
	}
	if doc.OtherData["backend"] != "solero" {
		t.Fatalf("/trace.json otherData = %+v", doc.OtherData)
	}
}
