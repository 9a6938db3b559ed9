package export

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/history"
)

// PerfettoEvent is one Chrome trace-event ("JSON Array Format" object).
// Protocol transitions are instants (ph "i") scoped to their thread, so
// Perfetto renders each lock event as a tick on the emitting thread's track.
type PerfettoEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	// TS is microseconds from the log's start (the trace-event clock unit).
	TS    float64       `json:"ts"`
	PID   int           `json:"pid"`
	TID   uint64        `json:"tid"`
	Scope string        `json:"s"`
	Args  *PerfettoArgs `json:"args,omitempty"`
}

// PerfettoArgs carries the protocol detail for one event. Name and Labels
// are only set on "M"-phase metadata events (process_name /
// process_labels), never on protocol instants.
type PerfettoArgs struct {
	Seq    uint64 `json:"seq"`
	Word   string `json:"word,omitempty"`
	Name   string `json:"name,omitempty"`
	Labels string `json:"labels,omitempty"`
}

// PerfettoTrace is the top-level JSON Object Format document.
type PerfettoTrace struct {
	TraceEvents     []PerfettoEvent   `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// Perfetto renders the log's kept events as trace-event JSON accepted by
// Perfetto and chrome://tracing, each named by its history kind. Events come
// out in sequence order; the number of dropped events rides along in
// otherData.
func Perfetto(r *history.Recorder) ([]byte, error) {
	return PerfettoWith(r, "", 0)
}

// PerfettoWith additionally stamps run-environment process metadata: the
// backend name becomes the Perfetto process name and, with GOMAXPROCS,
// a process label — so a trace pulled off a shared dashboard still says
// which lock backend produced it and how parallel the host really was.
// Empty backend and non-positive gomaxprocs omit their metadata, keeping
// plain Perfetto() output unchanged.
func PerfettoWith(r *history.Recorder, backendName string, gomaxprocs int) ([]byte, error) {
	doc := PerfettoTrace{
		TraceEvents:     []PerfettoEvent{},
		DisplayTimeUnit: "ns",
	}
	if backendName != "" || gomaxprocs > 0 {
		doc.OtherData = map[string]string{}
		name := "solero"
		if backendName != "" {
			name = "solero/" + backendName
			doc.OtherData["backend"] = backendName
		}
		doc.TraceEvents = append(doc.TraceEvents, PerfettoEvent{
			Name: "process_name", Phase: "M", PID: 1,
			Args: &PerfettoArgs{Name: name},
		})
		var labels []string
		if backendName != "" {
			labels = append(labels, "backend="+backendName)
		}
		if gomaxprocs > 0 {
			labels = append(labels, fmt.Sprintf("gomaxprocs=%d", gomaxprocs))
			doc.OtherData["gomaxprocs"] = fmt.Sprintf("%d", gomaxprocs)
		}
		doc.TraceEvents = append(doc.TraceEvents, PerfettoEvent{
			Name: "process_labels", Phase: "M", PID: 1,
			Args: &PerfettoArgs{Labels: strings.Join(labels, " ")},
		})
	}
	if r != nil {
		for _, e := range r.Events() {
			doc.TraceEvents = append(doc.TraceEvents, PerfettoEvent{
				Name:  e.Kind.String(),
				Phase: "i",
				TS:    float64(e.Nano) / 1e3,
				PID:   1,
				TID:   e.TID,
				Scope: "t",
				Args:  &PerfettoArgs{Seq: uint64(e.Seq), Word: fmt.Sprintf("%#x", e.Word)},
			})
		}
		if doc.OtherData == nil {
			doc.OtherData = map[string]string{}
		}
		doc.OtherData["dropped"] = fmt.Sprintf("%d", r.Dropped())
		doc.OtherData["recorded"] = fmt.Sprintf("%d", r.Len())
	}
	return json.MarshalIndent(&doc, "", " ")
}
