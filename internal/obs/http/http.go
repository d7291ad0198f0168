// Package obshttp exposes a process's observability surface over HTTP:
// the obs metric registry as Prometheus text (/metrics) and as a JSON
// snapshot (/statusz), the black-box flight recorder dump
// (/debug/flightz), and the standard pprof profiling endpoints
// (/debug/pprof/...). cmd/ampsched mounts it with -listen so long sweeps
// can be inspected live instead of only through the end-of-run -stats
// dump.
//
// The package follows the repository's observability discipline: a nil
// registry serves empty (never panics), handlers snapshot on every request
// (no caching, no background goroutines), and the text rendering is
// deterministic — sorted series names, fixed field order — so scraping the
// same state twice yields identical bytes.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
)

// NewHandler returns the exposition mux for r and rec. tool names the
// producing binary in /statusz documents. A nil r serves empty metric
// sets and a nil rec the empty flight dump; the pprof endpoints work
// regardless.
func NewHandler(tool string, r *obs.Registry, rec *flight.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", index)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteText(w, r)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteStatusz(w, tool, r); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/flightz", func(w http.ResponseWriter, req *http.Request) {
		// A nil recorder serves the empty dump — the endpoint is always
		// mounted so probes need not know whether recording is on.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeFlightz(w, rec)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeFlightz renders the /debug/flightz body: a per-code summary
// followed by the recorder's deterministic dump.
func writeFlightz(w interface{ Write([]byte) (int, error) }, rec *flight.Recorder) {
	counts := rec.CountByCode()
	for c := 0; c < flight.NumCodes; c++ {
		if counts[c] > 0 {
			fmt.Fprintf(w, "# %s: %d\n", flight.Code(c), counts[c])
		}
	}
	rec.WriteDump(w) //nolint:errcheck // ResponseWriter errors mean a gone client
}

// index is the human-facing front page listing the mounted endpoints.
func index(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `ampsched observability endpoints:
  /metrics        registry snapshot, Prometheus text exposition
  /statusz        registry snapshot with series tails and quantiles, JSON
  /debug/flightz  flight-recorder dump
  /debug/pprof/   pprof profiles
`)
}

// WriteText renders r's snapshot in the Prometheus text exposition
// format: every family gets a "# TYPE" line; counters and gauges render
// as single samples, timers as a pair of counters, log-bucketed histograms
// as summaries with p50/p95/p99 quantile samples, and series as a gauge
// (last point) plus a "_samples_total" counter. Output is sorted by series
// name and deterministic for identical registry states. A nil registry
// writes nothing.
func WriteText(w interface{ Write([]byte) (int, error) }, r *obs.Registry) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Snapshot() {
		name := textName(s.Name)
		switch s.Kind {
		case obs.KindCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n", name)
			fmt.Fprintf(w, "%s %d\n", name, s.Count)
		case obs.KindGauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			fmt.Fprintf(w, "%s %s\n", name, f(s.Value))
		case obs.KindTimer:
			fmt.Fprintf(w, "# TYPE %s_count counter\n", name)
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
			fmt.Fprintf(w, "# TYPE %s_total_ns counter\n", name)
			fmt.Fprintf(w, "%s_total_ns %d\n", name, s.TotalNs)
		case obs.KindLogHistogram:
			fmt.Fprintf(w, "# TYPE %s summary\n", name)
			if q := s.Quantiles; q != nil {
				fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", name, f(q.P50))
				fmt.Fprintf(w, "%s{quantile=\"0.95\"} %s\n", name, f(q.P95))
				fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", name, f(q.P99))
			}
			fmt.Fprintf(w, "%s_sum %s\n", name, f(s.Sum))
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
		case obs.KindSeries:
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			fmt.Fprintf(w, "%s %s\n", name, f(s.Value))
			fmt.Fprintf(w, "# TYPE %s_samples_total counter\n", name)
			fmt.Fprintf(w, "%s_samples_total %d\n", name, s.Count)
		}
	}
}

// Statusz is the /statusz document: the full deterministic registry
// snapshot — including series tails and histogram quantiles — plus the
// producing tool's name. It deliberately carries no timestamp so two
// scrapes of the same state are byte-identical.
type Statusz struct {
	Tool    string       `json:"tool"`
	Metrics []obs.Sample `json:"metrics"`
}

// WriteStatusz writes the /statusz JSON document for r. A nil registry
// yields an empty metric list.
func WriteStatusz(w interface{ Write([]byte) (int, error) }, tool string, r *obs.Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Statusz{Tool: tool, Metrics: r.Snapshot()})
}

// textName maps a dotted series name to the exposition-format convention:
// dots become underscores, and a name that starts with a digit (2CATAC's
// slug "2catac") gains a leading underscore, since a Prometheus metric
// name may not. Registry names are already slug segments joined by dots,
// so no further escaping is needed.
func textName(name string) string {
	name = strings.ReplaceAll(name, ".", "_")
	if name != "" && name[0] >= '0' && name[0] <= '9' {
		name = "_" + name
	}
	return name
}

// Server is a running exposition listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving NewHandler(tool, r, rec) on addr (e.g.
// "127.0.0.1:0", ":8080") in a background goroutine and returns the
// running server. The caller owns the returned server and must Close it.
func Serve(addr, tool string, r *obs.Registry, rec *flight.Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(tool, r, rec)}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the listener's resolved address — the way to recover the
// port after binding ":0".
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	return s.srv.Close()
}
