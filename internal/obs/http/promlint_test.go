package obshttp

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/strategy"
)

// fullRegistry exercises every metric kind the exposition knows.
func fullRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("herad.dp.cells").Add(42)
	r.Gauge("planbatch.workers").Set(4)
	r.Timer("sched.search.ns").Observe(1500 * time.Nanosecond)
	h := r.LogHistogram("planbatch.request_us")
	h.Observe(5)
	h.Observe(5000)
	lh := r.LogHistogram("streampu.latency_us.stage0")
	for i := 1; i <= 100; i++ {
		lh.Observe(float64(i))
	}
	sr := r.Series("desim.weight.stage0", 8)
	sr.Append(0, 120)
	sr.Append(1, 240)
	return r
}

func TestWriteTextIsValidPrometheusExposition(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, fullRegistry())
	out := buf.String()
	for _, want := range []string{
		"# TYPE herad_dp_cells counter\n",
		"# TYPE planbatch_workers gauge\n",
		"# TYPE planbatch_request_us summary\n",
		`planbatch_request_us{quantile="0.95"} `,
		"planbatch_request_us_sum 5005\n",
		"# TYPE streampu_latency_us_stage0 summary\n",
		`streampu_latency_us_stage0{quantile="0.5"} `,
		`streampu_latency_us_stage0{quantile="0.95"} `,
		`streampu_latency_us_stage0{quantile="0.99"} `,
		"streampu_latency_us_stage0_sum 5050\n",
		"streampu_latency_us_stage0_count 100\n",
		"# TYPE desim_weight_stage0 gauge\n",
		"desim_weight_stage0 240\n",
		"desim_weight_stage0_samples_total 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if errs := Lint(out); len(errs) != 0 {
		t.Fatalf("lint errors on own exposition:\n%v\n%s", errs, out)
	}
	// Determinism: a second render is byte-identical.
	var again bytes.Buffer
	WriteText(&again, fullRegistry())
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two renders of identical state differ")
	}
}

// TestEveryStrategyExpositionIsLintClean schedules every registered
// strategy, hidden ones included, into one registry and lints the scrape.
// 2CATAC's slug starts with a digit, so its series need textName's
// leading underscore; one invalid name makes Prometheus reject the whole
// scrape.
func TestEveryStrategyExpositionIsLintClean(t *testing.T) {
	c := chaingen.Generate(chaingen.Default(8, 0.5), rand.New(rand.NewSource(1)))
	reg := obs.NewRegistry()
	var reqs []strategy.Request
	for _, s := range strategy.AllRegistered() {
		reqs = append(reqs, strategy.Request{Chain: c, Resources: core.Res(3, 3), Scheduler: s,
			Options: strategy.Options{Metrics: reg}})
	}
	for _, res := range strategy.PlanBatch(reqs, 1) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var buf bytes.Buffer
	WriteText(&buf, reg)
	out := buf.String()
	for _, want := range []string{
		"# TYPE _2catac_sched_compute_stage_calls counter\n",
		"# TYPE brute_schedule_calls counter\n",
		"# TYPE planbatch_request_us summary\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if errs := Lint(out); len(errs) != 0 {
		t.Fatalf("%d lint errors, first %v", len(errs), errs[0])
	}
}

func TestLintRejectsViolations(t *testing.T) {
	cases := map[string]string{
		"bad name":        "# TYPE 9bad counter\n9bad 1\n",
		"uppercase name":  "# TYPE Bad counter\nBad 1\n",
		"bad type":        "# TYPE x histo\nx 1\n",
		"missing type":    "orphan 1\n",
		"bad value":       "# TYPE x counter\nx one\n",
		"bad label":       "# TYPE x gauge\nx{9lbl=\"v\"} 1\n",
		"unparsable":      "# TYPE x gauge\nx = 1\n",
		"duplicate type":  "# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"unknown comment": "# NOTE x\n",
	}
	for name, text := range cases {
		if errs := Lint(text); len(errs) == 0 {
			t.Errorf("%s: lint accepted %q", name, text)
		}
	}
	if errs := Lint("# TYPE ok_total counter\nok_total 3\n\n"); len(errs) != 0 {
		t.Errorf("clean text rejected: %v", errs)
	}
	// _count/_sum/_bucket children resolve to their histogram family.
	hist := "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if errs := Lint(hist); len(errs) != 0 {
		t.Errorf("histogram family rejected: %v", errs)
	}
}

func TestStatuszEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", "obshttp_test", fullRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func() (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/statusz status %d", resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ct := get()
	if ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var doc Statusz
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if doc.Tool != "obshttp_test" || len(doc.Metrics) == 0 {
		t.Fatalf("statusz doc = %+v", doc)
	}
	var sawTail, sawQuantiles bool
	for _, m := range doc.Metrics {
		if m.Kind == obs.KindSeries && len(m.Points) == 2 {
			sawTail = true
		}
		if m.Kind == obs.KindLogHistogram && m.Quantiles != nil && m.Quantiles.P95 > 0 {
			sawQuantiles = true
		}
	}
	if !sawTail || !sawQuantiles {
		t.Errorf("statusz missing tails (%v) or quantiles (%v):\n%s", sawTail, sawQuantiles, body)
	}
	// Scraping unchanged state twice is byte-identical.
	if body2, _ := get(); body2 != body {
		t.Error("two /statusz scrapes of the same state differ")
	}
}

func TestWriteStatuszNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStatusz(&buf, "t", nil); err != nil {
		t.Fatal(err)
	}
	var doc Statusz
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != 0 {
		t.Errorf("nil registry produced metrics: %+v", doc.Metrics)
	}
}
