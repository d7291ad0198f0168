package strategy

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// fakeScheduler lets tests observe concurrency without real scheduling
// work. Schedule blocks until release is closed (when set), so a test can
// count how many invocations run simultaneously.
type fakeScheduler struct {
	name    string
	active  *int32
	peak    *int32
	release chan struct{}
}

func (f fakeScheduler) Name() string { return f.name }

func (f fakeScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	if f.active != nil {
		n := atomic.AddInt32(f.active, 1)
		for {
			p := atomic.LoadInt32(f.peak)
			if n <= p || atomic.CompareAndSwapInt32(f.peak, p, n) {
				break
			}
		}
		if f.release != nil {
			<-f.release
		}
		atomic.AddInt32(f.active, -1)
	}
	return core.Solution{Stages: []core.Stage{{Start: 0, End: c.Len() - 1, Cores: 1, Type: core.Big}}}
}

func batchRequests(t testing.TB, n int) []Request {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	r := core.Res(3, 3)
	var reqs []Request
	for i := 0; i < n; i++ {
		c := chaingen.Generate(chaingen.Default(8+rng.Intn(8), 0.5), rng)
		for _, s := range All() {
			reqs = append(reqs, Request{Chain: c, Resources: r, Scheduler: s, Label: s.Name()})
		}
	}
	return reqs
}

func TestPlanBatchMatchesSerial(t *testing.T) {
	reqs := batchRequests(t, 12)
	serial := PlanBatch(reqs, 1)
	for _, workers := range []int{0, 2, 7, len(reqs) + 50} {
		par := PlanBatch(reqs, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i].Request.Label != reqs[i].Label {
				t.Fatalf("workers=%d: result %d out of order: %q", workers, i, par[i].Request.Label)
			}
			if par[i].Solution.String() != serial[i].Solution.String() ||
				par[i].Period != serial[i].Period {
				t.Errorf("workers=%d result %d (%s): %v p=%v, serial %v p=%v",
					workers, i, reqs[i].Label, par[i].Solution, par[i].Period,
					serial[i].Solution, serial[i].Period)
			}
			if par[i].Err != nil {
				t.Errorf("workers=%d result %d: %v", workers, i, par[i].Err)
			}
		}
	}
}

func TestPlanBatchWorkerBound(t *testing.T) {
	const workers, n = 3, 24
	var active, peak int32
	release := make(chan struct{})
	fs := fakeScheduler{name: "fake", active: &active, peak: &peak, release: release}
	c := testChain(t)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Chain: c, Resources: core.Res(1, 0), Scheduler: fs}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		PlanBatch(reqs, workers)
	}()
	// Let the pool saturate, then release everyone.
	for atomic.LoadInt32(&active) < workers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := atomic.LoadInt32(&peak); got != workers {
		t.Errorf("peak concurrency %d, want exactly %d", got, workers)
	}
}

func TestPlanBatchErrors(t *testing.T) {
	c := testChain(t)
	reqs := []Request{
		{Chain: c, Resources: core.Res(2, 0), Scheduler: MustParse("herad")},
		{Chain: nil, Resources: core.Res(2, 0), Scheduler: MustParse("herad")},
		{Chain: c, Resources: core.Res(2, 0)}, // no scheduler
		{Chain: c, Resources: core.Resources{}, Scheduler: MustParse("fertac")},
	}
	res := PlanBatch(reqs, 2)
	if res[0].Err != nil || res[0].Solution.IsEmpty() {
		t.Errorf("healthy request failed: %+v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Err == nil {
			t.Errorf("request %d: want error, got %+v", i, res[i])
		}
		if !res[i].Solution.IsEmpty() || !math.IsInf(res[i].Period, 1) {
			t.Errorf("request %d: want empty solution and +Inf period, got %v p=%v",
				i, res[i].Solution, res[i].Period)
		}
	}
}

func TestPlanBatchEmpty(t *testing.T) {
	if res := PlanBatch(nil, 4); len(res) != 0 {
		t.Errorf("PlanBatch(nil) = %v", res)
	}
}

// planAll runs every strategy of All() over one (chain, resources) pair in
// one PlanBatch — the batched form of a "-strategy all" sweep.
func planAll(c *core.Chain, r core.Resources, opts Options, workers int) []Result {
	var reqs []Request
	for _, s := range All() {
		reqs = append(reqs, Request{Chain: c, Resources: r, Scheduler: s, Options: opts, Label: s.Name()})
	}
	return PlanBatch(reqs, workers)
}

func TestPlanAll(t *testing.T) {
	c := testChain(t)
	r := core.Res(2, 4)
	res := planAll(c, r, Options{}, 0)
	labels := names()
	if len(res) != len(labels) {
		t.Fatalf("%d results, want %d", len(res), len(labels))
	}
	for i, re := range res {
		if re.Request.Label != labels[i] {
			t.Errorf("result %d labeled %q, want %q", i, re.Request.Label, labels[i])
		}
		if re.Err != nil {
			t.Errorf("%s: %v", labels[i], re.Err)
		}
		if want := re.Request.Scheduler.Schedule(c, r, Options{}); re.Solution.String() != want.String() {
			t.Errorf("%s: batch %v, direct %v", labels[i], re.Solution, want)
		}
		if re.Elapsed <= 0 {
			t.Errorf("%s: non-positive Elapsed %v", labels[i], re.Elapsed)
		}
	}
}
