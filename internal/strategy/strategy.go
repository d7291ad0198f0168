// Package strategy unifies every scheduling strategy of the repository —
// the paper's five evaluated strategies (HeRAD, 2CATAC, FERTAC, OTAC (B),
// OTAC (L)), the memoized 2CATAC ablation, and the brute-force reference —
// behind a single Scheduler interface and a name registry.
//
// The registry is the one place that maps strategy names (and their
// documented aliases) to implementations: cmd/ampsched, cmd/experiments,
// internal/experiments and the examples all dispatch through Parse/Get
// instead of maintaining their own string switches. Options carries the
// cross-cutting knobs (stage co-location, raw extraction, 2CATAC
// memoization, custom period bounds) that used to be threaded by hand.
//
// PlanBatch (batch.go) adds a concurrent planning layer on top: a bounded
// worker pool that fans (chain, resources, scheduler) requests out across
// CPUs and returns per-request solutions with timing.
package strategy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/sched"
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
	// Raw skips a strategy's embellishing post-pass — currently HeRAD's
	// replicable-stage merge — exposing schedules exactly as computed.
	Raw bool
	// Memoize collapses 2CATAC's exponential recursion tree per
	// binary-search probe (twocatac.ScheduleMemo); the schedules are
	// identical. Strategies without a memoized variant ignore it.
	Memoize bool
	// Bounds overrides the period interval searched by the binary-search
	// strategies (2CATAC, FERTAC, OTAC). Nil uses the paper's
	// sched.DefaultBounds plus the robustness fallback; a non-nil value
	// disables the fallback. HeRAD and Brute ignore it.
	Bounds *sched.Bounds
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
	// Cache, when non-nil, lets PlanBatch reuse solutions across identical
	// requests — duplicates within a batch and repeats across batches
	// sharing the cache — instead of re-solving them. The key is (chain
	// fingerprint, resources, strategy name, Colocate, Raw, Memoize,
	// Epsilon, Bounds); the observability sinks are excluded because they
	// never change the emitted schedule. Every strategy is
	// deterministic, so cached batches return byte-identical Results; only
	// the strategy-internal metric and journal volume shrinks (a hit emits
	// a "cache_hit" journal event instead of the solver's decision trail).
	// Direct Scheduler.Schedule calls ignore it. Nil disables caching with
	// zero behavior change.
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

// schedulable rejects the degenerate inputs that sched.Schedule guards
// against, so Bounds-overridden runs share the same contract.
func schedulable(c *core.Chain, r core.Resources) bool {
	return c != nil && c.Len() > 0 && r.Total() > 0 && r.NonNegative()
}

// binarySearch runs compute through the shared binary search, honoring a
// caller-supplied bounds override.
func binarySearch(c *core.Chain, r core.Resources, o Options, compute sched.ComputeSolutionFunc) core.Solution {
	return binarySearchM(c, r, o, compute, sched.Metrics{})
}

// binarySearchM is binarySearch reporting the search's series into m.
func binarySearchM(c *core.Chain, r core.Resources, o Options, compute sched.ComputeSolutionFunc, m sched.Metrics) core.Solution {
	if o.Bounds != nil {
		if !schedulable(c, r) {
			return core.Solution{}
		}
		return sched.ScheduleBoundsM(c, r, *o.Bounds, compute, m)
	}
	return sched.ScheduleM(c, r, compute, m)
}

// entry is one registered strategy.
type entry struct {
	s       Scheduler
	aliases []string
	hidden  bool
}

var registry = struct {
	sync.RWMutex
	byName map[string]*entry // normalized canonical name or alias → entry
	order  []*entry          // registration order
}{byName: map[string]*entry{}}

func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register adds s to the registry under its canonical name plus the given
// aliases (all matched case-insensitively by Get/Parse) and includes it in
// All. It panics on an empty or already-taken name — registering is a
// package-initialization affair and a clash is a programming error.
func Register(s Scheduler, aliases ...string) {
	register(s, false, aliases...)
}

// RegisterHidden is Register for strategies that Parse/Get should resolve
// but All should not list: ablation variants and test references that
// "-strategy all" style sweeps must not pick up.
func RegisterHidden(s Scheduler, aliases ...string) {
	register(s, true, aliases...)
}

func register(s Scheduler, hidden bool, aliases ...string) {
	if s == nil || normalize(s.Name()) == "" {
		panic("strategy: Register with no name")
	}
	e := &entry{s: s, aliases: aliases, hidden: hidden}
	registry.Lock()
	defer registry.Unlock()
	for _, key := range append([]string{s.Name()}, aliases...) {
		k := normalize(key)
		if k == "" || k == "all" {
			panic(fmt.Sprintf("strategy: reserved or empty name %q", key))
		}
		if _, dup := registry.byName[k]; dup {
			panic(fmt.Sprintf("strategy: duplicate registration of %q", key))
		}
		registry.byName[k] = e
	}
	registry.order = append(registry.order, e)
}

// Get returns the strategy registered under name (canonical or alias,
// case-insensitive) and whether it exists.
func Get(name string) (Scheduler, bool) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.byName[normalize(name)]
	if !ok {
		return nil, false
	}
	return e.s, true
}

// Parse resolves name like Get but returns a descriptive error listing
// every valid name and alias when the lookup fails.
func Parse(name string) (Scheduler, error) {
	if s, ok := Get(name); ok {
		return s, nil
	}
	registry.RLock()
	valid := make([]string, 0, len(registry.byName))
	for _, e := range registry.order {
		names := append([]string{e.s.Name()}, e.aliases...)
		valid = append(valid, strings.Join(names, "|"))
	}
	registry.RUnlock()
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

// All returns the non-hidden strategies in registration order — the
// paper's presentation order for the built-ins (HeRAD, 2CATAC, FERTAC,
// OTAC (B), OTAC (L)). This is what "-strategy all" sweeps run.
func All() []Scheduler {
	registry.RLock()
	defer registry.RUnlock()
	var out []Scheduler
	for _, e := range registry.order {
		if !e.hidden {
			out = append(out, e.s)
		}
	}
	return out
}

// AllRegistered returns every registered strategy, hidden ones included,
// in registration order.
func AllRegistered() []Scheduler {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Scheduler, len(registry.order))
	for i, e := range registry.order {
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
