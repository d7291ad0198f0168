package strategy

import (
	"bytes"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/trace"
)

func traceChain(t *testing.T) *core.Chain {
	t.Helper()
	c, err := core.NewChain([]core.Task{
		{Name: "source", Weight: core.Weights(40, 90)},
		{Name: "filter", Weight: core.Weights(120, 300), Replicable: true},
		{Name: "decode", Weight: core.Weights(310, 700), Replicable: true},
		{Name: "sink", Weight: core.Weights(25, 60)},
	})
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return c
}

// planAllJournal runs a full "-strategy all" batch under a fresh journal and
// returns its canonical JSONL export.
func planAllJournal(t *testing.T, c *core.Chain, r core.Resources, workers int) []byte {
	t.Helper()
	j := trace.New()
	opts := Options{Trace: j.Root().Begin("run")}
	results := planAll(c, r, opts, workers)
	if len(results) != len(All()) {
		t.Fatalf("planAll returned %d results, want %d", len(results), len(All()))
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestPlanBatchJournalDeterministic pins the tentpole's concurrency
// contract: the journal exported from a concurrent batch is byte-for-byte
// the journal of the same batch run serially, because request spans are
// opened in request order before dispatch and every worker appends only
// under its own span. Run with -race this also exercises concurrent
// appends into one journal from the pool workers.
func TestPlanBatchJournalDeterministic(t *testing.T) {
	c := traceChain(t)
	r := core.Res(2, 2)
	serial := planAllJournal(t, c, r, 1)
	if len(bytes.TrimSpace(serial)) == 0 {
		t.Fatal("serial journal is empty")
	}
	for i := 0; i < 5; i++ {
		concurrent := planAllJournal(t, c, r, 4)
		if !bytes.Equal(serial, concurrent) {
			t.Fatalf("journal differs between workers=1 and workers=4 (attempt %d):\nserial:\n%s\nconcurrent:\n%s",
				i, serial, concurrent)
		}
	}
}

// TestPlanBatchJournalRecordsErrors verifies failed requests journal a
// deterministic "result" error event rather than a period.
func TestPlanBatchJournalRecordsErrors(t *testing.T) {
	c := traceChain(t)
	j := trace.New()
	opts := Options{Trace: j.Root().Begin("run")}
	// OTAC (L) cannot schedule with zero little cores.
	results := PlanBatch([]Request{{
		Chain:     c,
		Resources: core.Res(2, 0),
		Scheduler: MustParse("otac-l"),
		Options:   opts,
		Label:     "doomed",
	}}, 1)
	if results[0].Err == nil {
		t.Fatal("expected OTAC (L) to fail with little=0")
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"name":"request"`, `"label":"doomed"`, `"error":`, `"no_schedule"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("journal missing %s:\n%s", want, out)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte(`"period"`)) {
		t.Errorf("failed request journaled a period:\n%s", out)
	}
}

// TestStrategySpansJournalDecisions spot-checks that each built-in strategy
// journals its characteristic decision events under its strategy span, with
// no metrics registry attached (journal-only mode).
func TestStrategySpansJournalDecisions(t *testing.T) {
	c := traceChain(t)
	r := core.Res(2, 2)
	wantEvents := map[string][]string{
		"herad":       {`"name":"dp_pass"`, `"name":"dp_cell"`, `"name":"solution"`, `"name":"stage"`},
		"2catac":      {`"name":"probe"`, `"name":"node"`, `"name":"solution"`},
		"fertac":      {`"name":"probe"`, `"name":"stage_placed"`, `"name":"solution"`},
		"otac-b":      {`"name":"probe"`, `"name":"stage_placed"`, `"name":"solution"`},
		"brute-force": {`"name":"improved"`, `"name":"enumeration"`, `"name":"solution"`},
	}
	for name, events := range wantEvents {
		j := trace.New()
		s := MustParse(name).Schedule(c, r, Options{Trace: j.Root().Begin("run")})
		if s.IsEmpty() {
			t.Fatalf("%s: no schedule", name)
		}
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatalf("%s: WriteJSONL: %v", name, err)
		}
		for _, want := range events {
			if !bytes.Contains(buf.Bytes(), []byte(want)) {
				t.Errorf("%s journal missing %s:\n%s", name, want, buf.String())
			}
		}
	}
}

// TestTraceDisabledIsAllocationFree pins the other half of the contract:
// a nil Options.Trace (and nil Metrics) adds zero allocations.
func TestTraceDisabledIsAllocationFree(t *testing.T) {
	c := traceChain(t)
	r := core.Res(2, 2)
	s := MustParse("otac-b")
	// Warm up once so lazily-initialized state does not count.
	s.Schedule(c, r, Options{})
	allocs := testing.AllocsPerRun(20, func() {
		s.Schedule(c, r, Options{})
	})
	// The strategy itself allocates its stages slice; the point is that
	// enabling the nil trace path adds nothing on top. Compare against an
	// explicit disabled-scope run.
	j := trace.New()
	_ = j
	withNil := testing.AllocsPerRun(20, func() {
		s.Schedule(c, r, Options{Trace: nil})
	})
	if withNil != allocs {
		t.Fatalf("nil Trace changed allocations: %v vs %v", withNil, allocs)
	}
}
