package strategy

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// editStream builds the workload ReplanBatch exists for: one base chain
// followed by chains that each differ from their predecessor by a single
// random reweigh — every fingerprint distinct, so the solution cache is
// structurally useless and only row reuse can help.
func editStream(seed int64, n, edits int) []Request {
	rng := rand.New(rand.NewSource(seed))
	c := chaingen.Generate(chaingen.Default(n, 0.5), rng)
	r := core.Res(3, 3)
	sc := MustParse("herad")
	reqs := []Request{{Chain: c, Resources: r, Scheduler: sc, Label: "base"}}
	for i := 0; i < edits; i++ {
		tasks := c.Tasks()
		j := rng.Intn(len(tasks))
		tasks[j].Weight = core.Weights(1+99*rng.Float64(), 1+99*rng.Float64())
		c = core.MustChain(tasks)
		reqs = append(reqs, Request{Chain: c, Resources: r, Scheduler: sc, Label: "edit"})
	}
	return reqs
}

// TestReplanBatchMatchesPlanBatch is the re-plan entry point's headline
// contract: over an edit stream, the warm-started results are identical to
// PlanBatch's from-scratch results — solutions, periods and errors — while
// actually reusing rows (every request past the first is a warm start that
// refills fewer rows than the chain has).
func TestReplanBatchMatchesPlanBatch(t *testing.T) {
	reqs := editStream(7, 14, 10)
	want := PlanBatch(reqs, 1)
	got, p, st := ReplanBatch(nil, reqs)
	assertSameResults(t, "replan", got, want)
	if p == nil {
		t.Fatal("no incumbent planner returned")
	}
	if st.WarmStarts != len(reqs) || st.Cold != 0 {
		t.Fatalf("stats = %+v, want %d warm starts, 0 cold", st, len(reqs))
	}
	if st.RowsTotal <= 0 || st.RowsRefilled >= st.RowsTotal {
		t.Fatalf("stats = %+v: warm starts saved no row work", st)
	}
}

// TestReplanBatchElapsedCoversFill pins what Result.Elapsed measures on the
// warm path: the planner work, not just the extraction. A session's first
// request pays a full fill of a long chain; the same chain again is a
// no-op rebase. The fill is all but the whole call, so the two Elapsed
// must account for most of the batch's wall clock (they summed to
// microseconds of a multi-millisecond call while the clock started after
// the fill), and the first cannot be the smaller one.
func TestReplanBatchElapsedCoversFill(t *testing.T) {
	c := chaingen.Generate(chaingen.Default(400, 0.5), rand.New(rand.NewSource(3)))
	req := Request{Chain: c, Resources: core.Res(4, 4), Scheduler: MustParse("herad")}
	start := time.Now()
	res, p, st := ReplanBatch(nil, []Request{req, req})
	total := time.Since(start)
	if st.WarmStarts != 2 || p.RowsRefilled() != 0 {
		t.Fatalf("stats = %+v, last refill %d rows: want a full fill then a no-op rebase", st, p.RowsRefilled())
	}
	if res[0].Elapsed < res[1].Elapsed {
		t.Errorf("full fill reported %v, no-op rebase %v", res[0].Elapsed, res[1].Elapsed)
	}
	if sum := res[0].Elapsed + res[1].Elapsed; sum < total/2 {
		t.Errorf("requests report %v of a %v batch: the fill is not on the clock", sum, total)
	}
}

// TestReplanBatchIncumbentCarryOver feeds two consecutive batches through
// the same incumbent: the second batch's first request warm-starts off the
// first batch's final chain instead of paying a full fill.
func TestReplanBatchIncumbentCarryOver(t *testing.T) {
	first := editStream(11, 12, 4)
	_, p, _ := ReplanBatch(nil, first)
	// Continue editing from where the first batch ended.
	last := first[len(first)-1]
	tasks := last.Chain.Tasks()
	tasks[len(tasks)-1].Weight = core.Weights(5, 9)
	next := Request{Chain: core.MustChain(tasks), Resources: last.Resources, Scheduler: last.Scheduler}
	got, p2, st := ReplanBatch(p, []Request{next})
	if p2 != p {
		t.Fatal("compatible batch replaced the incumbent planner")
	}
	if st.WarmStarts != 1 || st.Cold != 0 {
		t.Fatalf("stats = %+v, want pure warm start", st)
	}
	if st.RowsRefilled != 1 {
		t.Fatalf("tail reweigh refilled %d rows, want 1", st.RowsRefilled)
	}
	want := PlanBatch([]Request{next}, 1)
	assertSameResults(t, "carry-over", got, want)
}

// TestReplanBatchColdFallbacks pins every path that must bypass the
// planner: non-HeRAD schedulers, nil chains and mismatched resources all
// fall back to the regular plan path — with results identical to
// PlanBatch — and are counted as cold.
func TestReplanBatchColdFallbacks(t *testing.T) {
	c := testChain(t)
	r := core.Res(2, 3)
	herad := MustParse("herad")
	reqs := []Request{
		{Chain: c, Resources: r, Scheduler: herad, Label: "warm"},
		{Chain: c, Resources: r, Scheduler: MustParse("fertac"), Label: "other-strategy"},
		{Chain: nil, Resources: r, Scheduler: herad, Label: "nil-chain"},
		{Chain: c, Resources: core.Res(4, 1), Scheduler: herad, Label: "other-resources"},
		{Chain: c, Resources: r, Scheduler: herad, Label: "warm-again"},
	}
	got, _, st := ReplanBatch(nil, reqs)
	want := PlanBatch(reqs, 1)
	assertSameResults(t, "fallbacks", got, want)
	if st.WarmStarts != 2 || st.Cold != 3 {
		t.Fatalf("stats = %+v, want 2 warm starts and 3 cold", st)
	}
}

// TestReplanBatchEpsilonStream runs an edit stream that sets the ignored
// Options.Epsilon: every request still warm-starts, with PlanBatch's
// results.
func TestReplanBatchEpsilonStream(t *testing.T) {
	reqs := editStream(13, 16, 6)
	for i := range reqs {
		reqs[i].Options.Epsilon = 0.05
	}
	got, _, st := ReplanBatch(nil, reqs)
	want := PlanBatch(reqs, 1)
	assertSameResults(t, "epsilon stream", got, want)
	if st.Cold != 0 {
		t.Fatalf("stats = %+v: Epsilon must not demote a request to cold", st)
	}
}

// TestReplanBatchObservability checks the journal and metrics of a warm
// start: the per-request span carries a replan event with the row counts,
// and the replan counters accumulate.
func TestReplanBatchObservability(t *testing.T) {
	reqs := editStream(17, 10, 3)
	j := trace.New()
	reg := obs.NewRegistry()
	for i := range reqs {
		reqs[i].Options.Trace = j.Root()
		reqs[i].Options.Metrics = reg
	}
	_, _, st := ReplanBatch(nil, reqs)
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if replans := bytes.Count(buf.Bytes(), []byte(`"replan"`)); replans != st.WarmStarts {
		t.Errorf("journal has %d replan events, stats say %d warm starts:\n%s",
			replans, st.WarmStarts, buf.Bytes())
	}
	var warm, refilled int64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "replan.warm_starts":
			warm = s.Count
		case "replan.rows_refilled":
			refilled = s.Count
		}
	}
	if warm != int64(st.WarmStarts) || refilled != int64(st.RowsRefilled) {
		t.Errorf("metrics warm=%d refilled=%d, stats %+v", warm, refilled, st)
	}
}
