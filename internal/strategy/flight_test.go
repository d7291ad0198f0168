package strategy

import (
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs/flight"

	"math/rand"
)

func TestPlanBatchRecordsFlightEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := chaingen.Generate(chaingen.Default(6, 0.5), rng)
	rec := flight.New(64)
	opts := Options{Flight: rec, Cache: NewCache()}
	reqs := []Request{
		{Chain: c, Resources: core.Res(3, 3), Scheduler: MustParse("herad"), Options: opts},
		{Chain: c, Resources: core.Res(3, 3), Scheduler: MustParse("herad"), Options: opts}, // in-batch duplicate: solved again
		{Chain: nil, Resources: core.Res(3, 3), Scheduler: MustParse("herad"), Options: opts},
	}
	out := PlanBatch(reqs, 1)
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}

	evs := rec.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("flight holds %d events, want one CodePlan per resolved request: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Code != flight.CodePlan {
			t.Fatalf("event %d code = %v", i, e.Code)
		}
		if rec.Lookup(e.Aux) != "HeRAD" {
			t.Fatalf("event %d strategy = %q", i, rec.Lookup(e.Aux))
		}
	}
	// Both solves of the duplicate carry identical payloads.
	if evs[0].A != out[0].Period || evs[1].A != out[1].Period || evs[0].A != evs[1].A {
		t.Fatalf("plan periods: %v, %v vs results %v, %v", evs[0].A, evs[1].A, out[0].Period, out[1].Period)
	}
	if int(evs[0].B) != len(out[0].Solution.Stages) {
		t.Fatalf("stage count payload = %v, want %d", evs[0].B, len(out[0].Solution.Stages))
	}
	// The failed request still records (period +Inf, 0 stages).
	if evs[2].B != 0 || out[2].Err == nil {
		t.Fatalf("failed request event = %+v, err = %v", evs[2], out[2].Err)
	}
}

func TestReplanBatchRecordsFlightEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := chaingen.Generate(chaingen.Default(8, 0.6), rng)
	edited := chaingen.Generate(chaingen.Default(8, 0.6), rng)
	rec := flight.New(64)
	opts := Options{Flight: rec}
	reqs := []Request{
		{Chain: base, Resources: core.Res(3, 3), Scheduler: MustParse("herad"), Options: opts},
		{Chain: edited, Resources: core.Res(3, 3), Scheduler: MustParse("herad"), Options: opts},
	}
	out, p, st := ReplanBatch(nil, reqs)
	if p == nil || st.WarmStarts != 2 {
		t.Fatalf("replan stats = %+v", st)
	}
	evs := rec.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("flight holds %d events, want 2: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Code != flight.CodeReplan {
			t.Fatalf("event %d code = %v, want replan", i, e.Code)
		}
		if e.A != out[i].Period {
			t.Fatalf("event %d period = %v, result %v", i, e.A, out[i].Period)
		}
	}
	// The rebased request reports the rows it actually refilled.
	if evs[1].B <= 0 || evs[1].B > float64(edited.Len()) {
		t.Fatalf("rows refilled payload = %v", evs[1].B)
	}
}
