// Package strategy unifies every scheduling strategy of the repository —
// the paper's five evaluated strategies (HeRAD, 2CATAC, FERTAC, OTAC (B),
// OTAC (L)) and the brute-force reference — behind a single Scheduler
// interface and a fixed table of strategies.
//
// The table is the one place that maps strategy names (and their
// documented aliases) to implementations: cmd/ampsched, cmd/experiments,
// internal/experiments and the examples all dispatch through Parse/Get
// instead of maintaining their own string switches. Options carries the
// cross-cutting knobs (stage co-location, HeRAD's ε, the solution cache and
// the observability sinks). Each adapter has one code path: nil sinks are
// the off switch, as in internal/obs and internal/trace.
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
// panic — when no valid schedule exists. Strategies defined for a fixed
// number of core types additionally implement TypeConstrained.
type Scheduler interface {
	// Name returns the canonical display name (e.g. "HeRAD", "OTAC (B)"),
	// unique within the registry.
	Name() string
	// Schedule computes a schedule of c on r under the given options.
	Schedule(c *core.Chain, r core.Resources, opts Options) core.Solution
}

// TypeConstrained is implemented by Schedulers that only handle platforms
// with a specific number of core types (the paper's greedy strategies —
// 2CATAC, FERTAC, OTAC — are defined for exactly two). PlanBatch rejects
// requests whose resources declare a different type count with a clear
// error instead of letting the strategy silently misplan; CheckTypes
// exposes the same test to drivers. Schedulers without the method (HeRAD,
// Brute) accept any type count.
type TypeConstrained interface {
	// SupportedTypes returns the exact number of core types the scheduler
	// handles.
	SupportedTypes() int
}

// CheckTypes verifies that chain, resources and scheduler agree on the
// number of core types: the chain must declare one weight per resource
// type, and a TypeConstrained scheduler must support that count. It
// returns nil for unconstrained schedulers on matching inputs.
func CheckTypes(s Scheduler, c *core.Chain, r core.Resources) error {
	if c != nil && c.NumTypes() != r.NumTypes() {
		return fmt.Errorf("strategy: chain declares %d core types, resources %v declare %d",
			c.NumTypes(), r, r.NumTypes())
	}
	if tc, ok := s.(TypeConstrained); ok && r.NumTypes() != tc.SupportedTypes() {
		return fmt.Errorf("strategy: %s supports exactly %d core types, resources %v declare %d",
			s.Name(), tc.SupportedTypes(), r, r.NumTypes())
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
	// Epsilon > 0 selects a strategy's bounded-suboptimality mode when it
	// has one — currently HeRAD's ε-optimal beam-pruned DP fill, whose
	// emitted period P satisfies P ≤ (1+ε)·P* (herad.Options.Epsilon;
	// DESIGN.md §4e). Zero, negative and NaN all mean the exact solver,
	// bit-identical to the pre-ε behavior. ε changes the emitted schedule,
	// so it is part of the solution cache key; strategies without an
	// approximate mode ignore it.
	Epsilon float64
	// Workers is accepted and ignored: no strategy has an internal worker
	// pool (PlanBatch's own pool is sized by its workers argument). The
	// field outlives HeRAD's wavefront fill only because bench/ still sets
	// it (see ROADMAP.md); it never enters the solution cache key.
	Workers int
	// Cache, when non-nil, lets PlanBatch serve a request that a previous
	// batch sharing the cache solved instead of re-solving it (duplicates
	// inside one batch are each solved). The key is (chain
	// fingerprint, resources, strategy name, Colocate, Epsilon); the
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
	// under it (binary-search probes, DP cells, greedy placements, the
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
		return nil
	}
	return reg.Sub(obs.Slug(s.Name()))
}

// scope returns the per-strategy registry view for the named strategy,
// or nil when metrics are disabled.
func (o Options) scope(name string) *obs.Registry {
	if o.Metrics == nil {
		return nil // before Slug: the disabled path must not allocate
	}
	return o.Metrics.Sub(obs.Slug(name))
}

// span opens the per-strategy journal span for the named strategy, or
// returns nil when tracing is disabled (allocating nothing).
func (o Options) span(name string) *trace.Span {
	if o.Trace == nil {
		return nil
	}
	return o.Trace.Begin("strategy").Str("name", name)
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

// entry is one row of the strategy table.
type entry struct {
	s       Scheduler
	aliases []string // already normalized: Get compares them to normalize(name)
	hidden  bool
}

// registry is the strategy table, in the paper's presentation order so All
// drives "-strategy all" sweeps and the experiment tables unchanged. The
// brute-force reference is hidden: resolvable by name, excluded from
// sweeps. Adding a strategy is one row; TestRegistryNamesUnique keeps the
// names and aliases unambiguous.
var registry = []entry{
	{s: heradScheduler{}},
	{s: twocatacScheduler{}, aliases: []string{"twocatac"}},
	{s: fertacScheduler{}},
	{s: otacScheduler{v: core.Big}, aliases: []string{"otac-b", "otacb"}},
	{s: otacScheduler{v: core.Little}, aliases: []string{"otac-l", "otacl"}},
	{s: bruteScheduler{}, aliases: []string{"brute-force", "exhaustive"}, hidden: true},
}

func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Get returns the strategy whose canonical name or alias matches name
// (case-insensitive) and whether it exists.
func Get(name string) (Scheduler, bool) {
	k := normalize(name)
	for _, e := range registry {
		if normalize(e.s.Name()) == k || slices.Contains(e.aliases, k) {
			return e.s, true
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
	for i, e := range registry {
		valid[i] = strings.Join(append([]string{e.s.Name()}, e.aliases...), "|")
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
	for _, e := range registry {
		if !e.hidden {
			out = append(out, e.s)
		}
	}
	return out
}

// AllRegistered returns every strategy of the table, hidden ones included,
// in table order.
func AllRegistered() []Scheduler {
	out := make([]Scheduler, len(registry))
	for i, e := range registry {
		out[i] = e.s
	}
	return out
}

// Names returns the canonical names of All().
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name()
	}
	return out
}
