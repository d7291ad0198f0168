// Package strategy unifies every scheduling strategy of the repository —
// the paper's five evaluated strategies (HeRAD, 2CATAC, FERTAC, OTAC (B),
// OTAC (L)) and the brute-force reference — behind a single Scheduler
// interface and a fixed table of strategies.
//
// The table is the one place that maps strategy names (and their
// documented aliases) to implementations: cmd/ampsched, cmd/experiments
// and internal/experiments all dispatch through Parse/Get instead of
// maintaining their own string switches. Each row of the table
// is itself the Scheduler (builtin.go), with one Schedule path for every
// strategy. Options carries the cross-cutting knobs (stage co-location,
// the solution cache and the observability sinks); nil sinks are the off
// switch, as in internal/obs and internal/trace.
//
// PlanBatch (batch.go) adds a concurrent planning layer on top: a bounded
// worker pool that fans (chain, resources, scheduler) requests out across
// CPUs and returns per-request solutions with timing. A request is either
// a cache hit or solved; ReplanBatch (replan.go) warm-starts HeRAD edit
// streams through the same request span and result tail.
package strategy

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/trace"
)

// Scheduler is a scheduling strategy: it computes a pipelined-and-
// replicated schedule of a task chain on the platform's typed resources.
// Implementations must be safe for concurrent use (PlanBatch invokes them
// from multiple goroutines) and must return the empty solution — never
// panic — when no valid schedule exists.
type Scheduler interface {
	// Name returns the canonical display name (e.g. "HeRAD", "OTAC (B)"),
	// unique within the registry.
	Name() string
	// Schedule computes a schedule of c on r under the given options.
	Schedule(c *core.Chain, r core.Resources, opts Options) core.Solution
}

// CheckTypes verifies that chain, resources and scheduler agree on the
// number of core types: the chain must declare one weight per resource
// type, and a table row with a type count (the paper's greedy strategies —
// 2CATAC, FERTAC, OTAC — are defined for exactly two) must match it.
// PlanBatch runs it on every request, so a mismatch fails with this error
// instead of an empty schedule. Schedulers outside the table, and rows
// without a count (HeRAD, Brute), accept any type count.
func CheckTypes(s Scheduler, c *core.Chain, r core.Resources) error {
	if c != nil && c.NumTypes() != r.NumTypes() {
		return fmt.Errorf("strategy: chain declares %d core types, resources %v declare %d",
			c.NumTypes(), r, r.NumTypes())
	}
	if b, ok := s.(*builtin); ok && b.types != 0 && r.NumTypes() != b.types {
		return fmt.Errorf("strategy: %s supports exactly %d core types, resources %v declare %d",
			s.Name(), b.types, r, r.NumTypes())
	}
	return nil
}

// Options carries the cross-cutting scheduling knobs shared by every
// strategy. The zero value reproduces each strategy's published behavior.
type Options struct {
	// Colocate applies the §VII stage co-location post-pass: adjacent
	// light stages are fused (Solution.Fuse) at the schedule's own period
	// when that shortens the pipeline. The period never changes.
	Colocate bool
	// Epsilon is accepted and ignored, like Workers: HeRAD has one exact
	// fill. Kept for bench/; it never enters the solution cache key.
	Epsilon float64
	// Workers is accepted and ignored: no strategy has an internal worker
	// pool (PlanBatch's own pool is sized by its workers argument). The
	// field outlives HeRAD's wavefront fill only because bench/ still sets
	// it (see ROADMAP.md); it never enters the solution cache key.
	Workers int
	// Cache, when non-nil, lets PlanBatch serve a request that a previous
	// batch sharing the cache solved instead of re-solving it (duplicates
	// inside one batch are each solved). The key is (chain
	// fingerprint, resources, strategy name, Colocate); the
	// observability sinks are excluded because they never change the
	// emitted schedule. Every strategy is deterministic, so cached batches
	// return byte-identical Results; only the strategy-internal metric and
	// journal volume shrinks (a hit emits a "cache_hit" journal event
	// instead of the solver's decision trail). Direct Scheduler.Schedule
	// calls ignore it. Nil disables caching with zero behavior change.
	Cache *Cache
	// Metrics is the observability sink. When non-nil, every strategy
	// reports its named series into it, scoped by the strategy's slug
	// ("herad.dp.cells", "fertac.sched.search.iterations", …); PlanBatch
	// additionally aggregates batch-level series under "planbatch.".
	// When nil (the default) instrumentation is disabled and adds zero
	// allocations per schedule.
	Metrics *obs.Registry
	// Trace is the decision-journal parent span. When non-nil, every
	// strategy opens a "strategy" child span and journals its decisions
	// under it (binary-search steps, DP cells, greedy placements, the
	// final per-stage commitments); PlanBatch additionally opens one
	// "request" span per batch item. When nil (the default) journaling is
	// disabled and adds zero allocations per schedule.
	Trace *trace.Span
	// Flight is the black-box flight recorder. When non-nil, PlanBatch
	// records one CodePlan event per resolved request and ReplanBatch (whose
	// one caller is the benchmark's plan_edit workload) one CodeReplan event
	// per warm start. Like Metrics and Trace it is a pure
	// observability sink — it never changes the emitted schedule — and is
	// therefore excluded from the solution cache key. Nil (the default)
	// records nothing at zero cost.
	Flight *flight.Recorder
}

// MetricsScope returns the per-scheduler view of reg — the same slugged
// scoping every strategy applies to its own planning series ("herad.",
// "otac-b.", …) — so runtime telemetry recorded next to a strategy (the
// live streampu sampler) lands under the strategy's prefix.
// Returns nil when reg or s is nil.
func MetricsScope(s Scheduler, reg *obs.Registry) *obs.Registry {
	if s == nil || reg == nil {
		return nil // before Slug: the disabled path must not allocate
	}
	return reg.Sub(obs.Slug(s.Name()))
}

// traceSolution journals the final commitments of a computed schedule:
// one "solution" summary plus one "stage" event per pipeline stage with
// the interval, core type, replication count and resulting weight — the
// "why did this stage get these cores" record -explain renders. No-op on
// a nil span.
func traceSolution(sp *trace.Span, c *core.Chain, s core.Solution) {
	if sp == nil {
		return
	}
	if s.IsEmpty() {
		sp.Event("no_schedule")
		return
	}
	b, l := s.CoresUsed()
	ev := sp.Event("solution").F64("period", s.Period(c)).Int("stages", len(s.Stages)).
		Int("big_used", b).Int("little_used", l)
	if k := c.NumTypes(); k > 2 {
		// Two-type journals keep the historical big/little fields only; the
		// extra types of k>2 platforms ride in one usage vector field.
		ev.Str("usage", fmt.Sprint(s.Usage(k)))
	}
	for i, st := range s.Stages {
		sp.Event("stage").Int("index", i).Int("first_task", st.Start).Int("last_task", st.End).
			Int("cores", st.Cores).Str("type", st.Type.String()).
			Bool("replicable", c.IsRep(st.Start, st.End)).
			F64("weight", c.Weight(st.Start, st.End, st.Cores, st.Type))
	}
}

// finish applies the post-passes requested by o to a computed solution.
func (o Options) finish(c *core.Chain, s core.Solution) core.Solution {
	if o.Colocate && !s.IsEmpty() {
		if fused := s.Fuse(c, s.Period(c)); len(fused.Stages) < len(s.Stages) {
			s = fused
		}
	}
	return s
}

func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Get returns the strategy whose canonical name or alias matches name
// (case-insensitive) and whether it exists.
func Get(name string) (Scheduler, bool) {
	k := normalize(name)
	for _, b := range registry {
		if normalize(b.name) == k || slices.Contains(b.aliases, k) {
			return b, true
		}
	}
	return nil, false
}

// Parse resolves name like Get but returns a descriptive error listing
// every valid name and alias when the lookup fails.
func Parse(name string) (Scheduler, error) {
	if s, ok := Get(name); ok {
		return s, nil
	}
	valid := make([]string, len(registry))
	for i, b := range registry {
		valid[i] = strings.Join(append([]string{b.name}, b.aliases...), "|")
	}
	sort.Strings(valid)
	return nil, fmt.Errorf("strategy: unknown strategy %q (valid: %s)",
		name, strings.Join(valid, ", "))
}

// MustParse is Parse for known-good names; it panics on failure.
func MustParse(name string) Scheduler {
	s, err := Parse(name)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns the non-hidden strategies in table order — the paper's
// presentation order (HeRAD, 2CATAC, FERTAC, OTAC (B), OTAC (L)). This is
// what "-strategy all" sweeps run.
func All() []Scheduler {
	var out []Scheduler
	for _, b := range registry {
		if !b.hidden {
			out = append(out, b)
		}
	}
	return out
}
