package herad

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/trace"
)

// TestGeneralK3VsBrute cross-validates the fill against exhaustive
// enumeration on three-type platforms: the DP must reach the optimal
// period on every instance small enough to enumerate.
func TestGeneralK3VsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(5)
		sr := []float64{0, 0.5, 1}[rng.Intn(3)]
		c := chaingen.Generate(chaingen.Default3(n, sr), rng)
		r := core.Res(rng.Intn(3), rng.Intn(3), rng.Intn(3))
		want := brute.MinPeriod(c, r)
		s := Schedule(c, r)
		if got := s.Period(c); got != want {
			t.Fatalf("iter %d (n=%d sr=%g R=%v): period %v, want %v\n%v",
				iter, n, sr, r, got, want, s)
		}
		if !s.IsEmpty() {
			if err := s.Validate(c, r); err != nil {
				t.Fatalf("iter %d: invalid schedule: %v", iter, err)
			}
		}
	}
}

// TestGeneralK1VsBrute exercises the degenerate single-type table.
func TestGeneralK1VsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(6)
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{
				Weight:     core.Weights(float64(1 + rng.Intn(50))),
				Replicable: rng.Intn(2) == 0,
			}
		}
		c := core.MustChain(tasks)
		r := core.Res(1 + rng.Intn(4))
		want := brute.MinPeriod(c, r)
		s := Schedule(c, r)
		if got := s.Period(c); got != want {
			t.Fatalf("iter %d (n=%d R=%v): period %v, want %v", iter, n, r, got, want)
		}
	}
}

// TestGeneralRejectsTypeMismatch: a chain and a platform disagreeing on
// the number of core types cannot be scheduled.
func TestGeneralTypeMismatch(t *testing.T) {
	c := core.MustChain([]core.Task{task(5, 10, true)})
	if s := Schedule(c, core.Res(1, 1, 1)); !s.IsEmpty() {
		t.Errorf("2-type chain scheduled on 3-type platform: %v", s)
	}
}

// TestJournalStateSchema pins how the fill's journal events name a DP
// state: integer big/little counts for types 0 and 1 on every platform,
// plus — only past two types — the whole remaining-count vector as one
// resources string, and the cut split on every dp_prune.
func TestJournalStateSchema(t *testing.T) {
	journal := func(c *core.Chain, r core.Resources) string {
		j := trace.New()
		ScheduleOpts(c, r, Options{Metrics: Metrics{Trace: trace.NewScope(j.Root())}})
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	rng := rand.New(rand.NewSource(64))
	k2 := journal(chaingen.Generate(chaingen.Default(6, 0.5), rng), core.Res(2, 2))
	k3 := journal(chaingen.Generate(chaingen.Default3(6, 0.5), rng), core.Res(2, 1, 2))
	for _, line := range strings.Split(strings.TrimSpace(k2+k3), "\n") {
		if !strings.Contains(line, `"name":"dp_`) {
			continue
		}
		if !strings.Contains(line, `"big":`) || !strings.Contains(line, `"little":`) || strings.Contains(line, `"state":`) {
			t.Errorf("DP event without big/little counts: %s", line)
		}
		if strings.Contains(line, `"name":"dp_prune"`) && !strings.Contains(line, `"cut_at_start":`) {
			t.Errorf("dp_prune without its cut: %s", line)
		}
	}
	if strings.Contains(k2, `"resources":`) {
		t.Error("two-type journal carries a resources vector")
	}
	if !strings.Contains(k3, `"resources":"(2B,1L,2T2)"`) || !strings.Contains(k3, `"resources":"(0B,0L,1T2)"`) {
		t.Errorf("three-type journal lacks the dp_pass platform or a remaining-count vector:\n%s", k3)
	}
}
