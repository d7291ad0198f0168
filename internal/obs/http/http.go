// Package obshttp exposes a process's observability surface over HTTP:
// the obs metric registry as plain text (/metrics) and as the canonical
// metrics.json report (/metrics.json), SLO burn-rate families appended
// to /metrics, liveness and readiness probes (/healthz, /readyz), the
// black-box flight recorder dump (/debug/flightz), the Go runtime's
// expvar variables (/debug/vars), and the standard pprof profiling
// endpoints (/debug/pprof/...). cmd/ampsched mounts it with -listen so
// long sweeps can be inspected live instead of only through the
// end-of-run -stats dump.
//
// The package follows the repository's observability discipline: a nil
// registry serves empty (never panics), handlers snapshot on every request
// (no caching, no background goroutines), and the text rendering is
// deterministic — sorted series names, fixed field order — so scraping the
// same state twice yields identical bytes.
package obshttp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
)

// HandlerOptions extends the exposition mux beyond the metric registry.
// The zero value serves the classic surface.
type HandlerOptions struct {
	// Flight, when non-nil, mounts /debug/flightz serving the recorder's
	// deterministic dump with a per-code summary header.
	Flight *flight.Recorder
	// SLOs are evaluated on every /metrics scrape and appended as
	// slo_<name>_* families; /readyz reports 503 while any objective
	// burns above 1.
	SLOs []obs.SLO
	// Ready, when non-nil, gates /readyz in addition to the SLO check —
	// the hook a daemon uses to signal "still warming up".
	Ready func() bool
}

// NewHandler returns the exposition mux for r. tool names the producing
// binary in /metrics.json reports. A nil r serves empty metric sets; the
// debug endpoints work regardless.
func NewHandler(tool string, r *obs.Registry) http.Handler {
	return NewHandlerOpts(tool, r, HandlerOptions{})
}

// NewHandlerOpts is NewHandler with the extended surface of opts.
func NewHandlerOpts(tool string, r *obs.Registry, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", index)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteText(w, r)
		WriteSLOText(w, r, opts.SLOs)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.NewReport(tool, r).WriteJSON(w); err != nil {
			// Headers are gone; all we can do is abort the body.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteStatuszOpts(w, tool, r, StatuszOptions{SLOs: opts.SLOs}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		// Liveness: answering at all is the signal.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil && !opts.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		for _, st := range obs.EvaluateSLOs(r, opts.SLOs) {
			if !st.Met {
				http.Error(w, fmt.Sprintf("slo %s burning at %.3g (>1)", st.Name, st.BurnRate),
					http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/flightz", func(w http.ResponseWriter, req *http.Request) {
		// A nil recorder serves the empty dump — the endpoint is always
		// mounted so probes need not know whether recording is on.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeFlightz(w, opts.Flight)
	})
	mux.Handle("/debug/vars", expvar.Handler())
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
  /metrics        registry snapshot, Prometheus text exposition (+ SLO families)
  /metrics.json   registry snapshot, metrics.json report
  /statusz        registry snapshot with series tails, quantiles and SLOs, JSON
  /healthz        liveness probe
  /readyz         readiness probe (503 while an SLO burns above 1)
  /debug/flightz  flight-recorder dump
  /debug/vars     expvar JSON
  /debug/pprof/   pprof profiles
`)
}

// WriteText renders r's snapshot in the Prometheus text exposition
// format: every family gets a "# TYPE" line; counters and gauges render
// as single samples, timers as a pair of counters, histograms as
// cumulative "_bucket"/"_sum"/"_count" families, log-bucketed histograms
// as summaries with p50/p95/p99 quantile samples, series as a gauge (last
// point) plus a "_samples_total" counter, and EWMA/rate estimators as
// gauges. Output is sorted by series name and deterministic for identical
// registry states. A nil registry writes nothing.
func WriteText(w interface{ Write([]byte) (int, error) }, r *obs.Registry) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Snapshot() {
		name := textName(s.Name)
		switch s.Kind {
		case obs.KindCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n", name)
			fmt.Fprintf(w, "%s %d\n", name, s.Count)
		case obs.KindGauge, obs.KindEWMA, obs.KindRate:
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			fmt.Fprintf(w, "%s %s\n", name, f(s.Value))
		case obs.KindTimer:
			fmt.Fprintf(w, "# TYPE %s_count counter\n", name)
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
			fmt.Fprintf(w, "# TYPE %s_total_ns counter\n", name)
			fmt.Fprintf(w, "%s_total_ns %d\n", name, s.TotalNs)
		case obs.KindHistogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			cum := int64(0)
			for _, b := range s.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, f(b.LE), cum)
			}
			cum += s.Overflow
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(w, "%s_sum %s\n", name, f(s.Sum))
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
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

// WriteSLOText appends the SLO burn-rate families to a /metrics scrape,
// one five-family block per objective in configuration order:
//
//	slo_<name>_observations_total  counter  histogram observation count
//	slo_<name>_breaches_total      counter  observations over the threshold
//	slo_<name>_burn_rate           gauge    (breaches/total)/(1−quantile)
//	slo_<name>_threshold           gauge    the configured bound
//	slo_<name>_met                 gauge    1 when burn ≤ 1
//
// Output is deterministic for identical registry states and promlint-
// clean; no SLOs writes nothing.
func WriteSLOText(w interface{ Write([]byte) (int, error) }, r *obs.Registry, slos []obs.SLO) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, st := range obs.EvaluateSLOs(r, slos) {
		base := "slo_" + textName(st.Name)
		fmt.Fprintf(w, "# TYPE %s_observations_total counter\n", base)
		fmt.Fprintf(w, "%s_observations_total %d\n", base, st.Total)
		fmt.Fprintf(w, "# TYPE %s_breaches_total counter\n", base)
		fmt.Fprintf(w, "%s_breaches_total %d\n", base, st.Breaches)
		fmt.Fprintf(w, "# TYPE %s_burn_rate gauge\n", base)
		fmt.Fprintf(w, "%s_burn_rate %s\n", base, f(st.BurnRate))
		fmt.Fprintf(w, "# TYPE %s_threshold gauge\n", base)
		fmt.Fprintf(w, "%s_threshold %s\n", base, f(st.Threshold))
		met := 0
		if st.Met {
			met = 1
		}
		fmt.Fprintf(w, "# TYPE %s_met gauge\n", base)
		fmt.Fprintf(w, "%s_met %d\n", base, met)
	}
}

// Statusz is the /statusz document: the full deterministic registry
// snapshot — including series tails and histogram quantiles — plus the
// producing tool's name and any evaluated SLOs. It deliberately carries
// no timestamp so two scrapes of the same state are byte-identical.
type Statusz struct {
	Tool    string          `json:"tool"`
	Metrics []obs.Sample    `json:"metrics"`
	SLOs    []obs.SLOStatus `json:"slos,omitempty"`
}

// StatuszOptions shapes a /statusz document.
type StatuszOptions struct {
	// ZeroTimers blanks the wall-clock TotalNs field of timer samples —
	// the one nondeterministic family — making the document byte-
	// deterministic for deterministic workloads (a simulated run).
	ZeroTimers bool
	// SLOs are evaluated against the registry and embedded.
	SLOs []obs.SLO
}

// WriteStatusz writes the /statusz JSON document for r. A nil registry
// yields an empty metric list.
func WriteStatusz(w interface{ Write([]byte) (int, error) }, tool string, r *obs.Registry) error {
	return WriteStatuszOpts(w, tool, r, StatuszOptions{})
}

// WriteStatuszOpts is WriteStatusz shaped by opts.
func WriteStatuszOpts(w interface{ Write([]byte) (int, error) }, tool string, r *obs.Registry, opts StatuszOptions) error {
	doc := Statusz{Tool: tool, Metrics: r.Snapshot(), SLOs: obs.EvaluateSLOs(r, opts.SLOs)}
	if opts.ZeroTimers {
		for i := range doc.Metrics {
			if doc.Metrics[i].Kind == obs.KindTimer {
				doc.Metrics[i].TotalNs = 0
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// textName maps a dotted series name to the exposition-format convention:
// dots become underscores. Registry names are already slug segments joined
// by dots, so no further escaping is needed.
func textName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// Server is a running exposition listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving NewHandler(tool, r) on addr (e.g. "127.0.0.1:0",
// ":8080") in a background goroutine and returns the running server. The
// caller owns the returned server and must Close it.
func Serve(addr, tool string, r *obs.Registry) (*Server, error) {
	return ServeOpts(addr, tool, r, HandlerOptions{})
}

// ServeOpts is Serve with the extended surface of opts.
func ServeOpts(addr, tool string, r *obs.Registry, opts HandlerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandlerOpts(tool, r, opts)}}
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
