package export

import (
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
)

// The expvar registry is process-global and Publish panics on duplicate
// names, so the "solero" var is registered once and indirects through an
// atomic pointer to whichever Source most recently built a Mux.
var (
	expvarOnce   sync.Once
	expvarSource atomic.Pointer[Source]
)

func (s *Source) publishExpvar() {
	expvarSource.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("solero", expvar.Func(func() any {
			if src := expvarSource.Load(); src != nil {
				return src.Bundle(0)
			}
			return nil
		}))
	})
}

// Mux returns the live observability endpoint served by
// `lockstats -serve :PORT`:
//
//	/metrics                  Prometheus text exposition
//	/debug/vars               expvar JSON (includes the "solero" snapshot bundle)
//	/snapshot.json            the Bundle schema (solero-snapshot/v1)
//	/trace.json               Perfetto/Chrome trace-event JSON of the protocol log's tail
//	/debug/pprof/contention   gzipped pprof protobuf of sampled contention sites
func (s *Source) Mux() *http.ServeMux {
	s.publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Prometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		data, err := s.Bundle(0).MarshalIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		data, err := PerfettoWith(s.History, s.Backend, runtime.GOMAXPROCS(0))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/debug/pprof/contention", func(w http.ResponseWriter, _ *http.Request) {
		data, err := ContentionProfile(s.Registry)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="contention.pb.gz"`)
		w.Write(data)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "solero %s (%d threads)\n\n/metrics\n/debug/vars\n/snapshot.json\n/trace.json\n/debug/pprof/contention\n",
			s.Benchmark, s.Threads)
	})
	return mux
}
