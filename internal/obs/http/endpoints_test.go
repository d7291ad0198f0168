package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
)

func getBody(t *testing.T, base, path string) (int, string) {
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
	return resp.StatusCode, string(body)
}

func TestDebugFlightz(t *testing.T) {
	rec := flight.New(16)
	rec.Record(flight.Event{Code: flight.CodeStall, Tick: 3, Stage: 1, A: 240, B: 120})
	rec.Record(flight.Event{Code: flight.CodePlan, Tick: 5, Stage: -1, A: 412.5, B: 3})
	srv, err := Serve("127.0.0.1:0", "t", nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := getBody(t, base, "/debug/flightz")
	if code != http.StatusOK {
		t.Fatalf("/debug/flightz code=%d", code)
	}
	for _, want := range []string{
		"# plan: 1\n", "# stall: 1\n",
		"# flight dump: 2 event(s), 2 recorded, cap 16\n",
		"#1 tick=3 stall stage=1 a=240 b=120\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/flightz missing %q:\n%s", want, body)
		}
	}
	// Two scrapes of the same recorded history are byte-identical.
	if _, again := getBody(t, base, "/debug/flightz"); again != body {
		t.Error("two /debug/flightz scrapes differ")
	}

	// Without a recorder the endpoint stays mounted and serves empty.
	srv2, err := Serve("127.0.0.1:0", "t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if code, body := getBody(t, "http://"+srv2.Addr(), "/debug/flightz"); code != http.StatusOK ||
		!strings.Contains(body, "0 event(s)") {
		t.Errorf("recorder-less /debug/flightz: code=%d body=%q", code, body)
	}
}

// TestConcurrentScrapesStayLintClean hammers /metrics, /statusz and
// /debug/flightz while a sampler goroutine keeps appending to series,
// histograms and the flight recorder. Run under -race this exercises the
// whole read path against live writers; every response must still parse
// (statusz as JSON, metrics through the promlint Lint).
func TestConcurrentScrapesStayLintClean(t *testing.T) {
	reg := obs.NewRegistry()
	rec := flight.New(64)
	srv, err := Serve("127.0.0.1:0", "t", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		series := reg.Series("pipe.occupancy")
		lat := reg.LogHistogram("pipe.latency_us")
		for tick := int64(0); ; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			series.Append(tick, float64(tick%7))
			lat.Observe(float64(10 + tick%1000))
			rec.Record(flight.Event{Code: flight.CodeWindow, Tick: tick, A: float64(tick)})
		}
	}()

	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				if code, body := getBody(t, base, "/metrics"); code != http.StatusOK {
					t.Errorf("/metrics code=%d", code)
				} else if errs := Lint(body); len(errs) != 0 {
					t.Errorf("concurrent /metrics fails lint: %v\n%s", errs, body)
				}
				if code, body := getBody(t, base, "/statusz"); code != http.StatusOK {
					t.Errorf("/statusz code=%d", code)
				} else {
					var doc Statusz
					if err := json.Unmarshal([]byte(body), &doc); err != nil {
						t.Errorf("concurrent /statusz is not JSON: %v", err)
					}
				}
				if code, _ := getBody(t, base, "/debug/flightz"); code != http.StatusOK {
					t.Errorf("/debug/flightz code=%d", code)
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
