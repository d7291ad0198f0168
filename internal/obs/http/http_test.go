package obshttp

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ampsched/internal/obs"
)

func sampleRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("herad.dp.cells").Add(42)
	r.Gauge("planbatch.workers").Set(4)
	r.Timer("sched.search.ns").Observe(1500 * time.Nanosecond)
	h := r.LogHistogram("planbatch.request_us")
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	return r
}

func TestWriteTextDeterministic(t *testing.T) {
	r := sampleRegistry()
	var a, b bytes.Buffer
	WriteText(&a, r)
	WriteText(&b, r)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two renders of the same state differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"herad_dp_cells 42\n",
		"planbatch_workers 4\n",
		"sched_search_ns_count 1\n",
		"sched_search_ns_total_ns 1500\n",
		"# TYPE planbatch_request_us summary\n",
		`planbatch_request_us{quantile="0.5"} `,
		`planbatch_request_us{quantile="0.99"} `,
		"planbatch_request_us_sum 5055\n",
		"planbatch_request_us_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteTextNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, nil)
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", "obshttp_test", sampleRegistry(), nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "herad_dp_cells 42") || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics: code=%d ct=%q body=%q", code, ct, body)
	}

	if code, body, _ := get("/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code=%d body=%.80q", code, body)
	}

	if code, body, _ := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: code=%d body=%q", code, body)
	}

	// The index lists exactly the mounted endpoints, and each answers.
	code, body, _ := get("/")
	if code != http.StatusOK {
		t.Fatalf("/: code=%d", code)
	}
	var listed []string
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "/") {
			listed = append(listed, f[0])
		}
	}
	want := []string{"/metrics", "/statusz", "/debug/flightz", "/debug/pprof/"}
	if strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("index lists %v, want %v", listed, want)
	}
	for _, path := range want {
		if code, _, _ := get(path); code != http.StatusOK {
			t.Errorf("%s: code=%d, want 200", path, code)
		}
	}
	for _, path := range []string{"/nope", "/metrics.json", "/debug/vars", "/healthz", "/readyz"} {
		if code, _, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s: code=%d, want 404", path, code)
		}
	}
}

func TestServeNilRegistry(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", "obshttp_test", nil, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Errorf("nil-registry /metrics: code=%d body=%q", resp.StatusCode, body)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", "t", nil, nil); err == nil {
		t.Fatal("expected error for a bad listen address")
	}
}
