// Package core defines the task-chain scheduling model of the paper
// "Scheduling Strategies for Partially-Replicable Task Chains on Two Types
// of Resources" (Orhan et al., IPPS 2025), generalized to k core types.
//
// A workflow is a linear chain of n tasks τ_0 … τ_{n-1} (0-based here; the
// paper is 1-based). Each task is either replicable (stateless) or
// sequential (stateful), and has one computation weight (latency) per core
// type. The computing system has k types of unrelated resources with a
// platform-defined count of cores per type; the paper's instance is k=2
// (b big cores and l little cores), and that remains the model's default
// reading — type 0 is "B", type 1 is "L". A schedule partitions the chain
// into contiguous intervals (pipeline stages); each stage receives r cores
// of a single type v. The weight of a stage (Eq. 1 of the paper) is the sum
// of its tasks' weights on v, divided by r when every task in the stage is
// replicable. The period of a schedule (Eq. 2) is the maximum stage weight,
// and a schedule is valid (Eq. 3) when it respects the per-type core
// counts.
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CoreType indexes one resource type of the platform. The platform's type
// table (how many types exist, their counts and display names) lives in
// Resources; a CoreType is meaningful relative to the Resources it is used
// with.
type CoreType uint8

const (
	// Big is type 0, the paper's high-performance (p-core) resource type.
	Big CoreType = iota
	// Little is type 1, the paper's high-efficiency (e-core) resource type.
	Little
	// MaxCoreTypes bounds the number of resource types a platform may
	// declare. Eight is far beyond any platform in the literature and keeps
	// Resources a small comparable value (usable as a map key).
	MaxCoreTypes = 8
)

// String returns the conventional one-letter name used by the paper for
// the two canonical types ("B" for type 0, "L" for type 1) and "T2",
// "T3", … for the additional types of k>2 platforms. Platforms can
// override these defaults per type via the Resources type table (see
// Resources.TypeName).
func (t CoreType) String() string {
	switch t {
	case Big:
		return "B"
	case Little:
		return "L"
	default:
		return fmt.Sprintf("T%d", uint8(t))
	}
}

// Task is one element of a task chain.
type Task struct {
	// Name identifies the task in reports and traces.
	Name string
	// Weight holds the computation weight (latency) of the task on each
	// core type, indexed by CoreType. Every task of a chain must declare
	// the same number of weights (the chain's type count).
	Weight []float64
	// Replicable reports whether the task is stateless and may therefore
	// be replicated across several cores of the same stage.
	Replicable bool
}

// W returns the task's weight on core type v.
func (t Task) W(v CoreType) float64 { return t.Weight[v] }

// Weights builds a per-type weight vector; it exists so call sites read
// Weights(wb, wl) instead of a bare slice literal.
func Weights(w ...float64) []float64 { return w }

// Resources describes the platform's type table: the number of core types
// and, per type, the number of available cores and an optional one-letter
// display name. The zero value declares no types; build values with Res,
// ParseResources or Unlimited. Resources is a comparable value type —
// callers pass and copy it freely, and it serves directly as a map key
// (the strategy-layer solution cache relies on this).
type Resources struct {
	k      uint8
	counts [MaxCoreTypes]int32
	names  [MaxCoreTypes]byte // 0 = default name (B, L, T2, …)
}

// Res builds a Resources with one count per core type, in type order:
// Res(16, 4) is the paper's R=(16B,4L). It panics if more than
// MaxCoreTypes counts are given.
func Res(counts ...int) Resources {
	if len(counts) > MaxCoreTypes {
		panic(fmt.Sprintf("core: %d core types exceeds MaxCoreTypes=%d",
			len(counts), MaxCoreTypes))
	}
	var r Resources
	r.k = uint8(len(counts))
	for i, c := range counts {
		r.counts[i] = int32(c)
	}
	return r
}

// Unlimited returns a k-type Resources with an effectively infinite
// (1<<30) core count per type, for validity checks that ignore capacity.
func Unlimited(k int) Resources {
	var counts []int
	for i := 0; i < k; i++ {
		counts = append(counts, 1<<30)
	}
	return Res(counts...)
}

// ParseResources parses a platform spec of the form "16B,4L" or
// "4B,2M,8L": one comma-separated component per core type, each a core
// count with an optional one-letter display name. Bare counts ("16,4")
// use the default names (B, L, T2, …).
func ParseResources(spec string) (Resources, error) {
	parts := strings.Split(spec, ",")
	if len(parts) > MaxCoreTypes {
		return Resources{}, fmt.Errorf("core: resource spec %q declares %d types, max %d",
			spec, len(parts), MaxCoreTypes)
	}
	var r Resources
	r.k = uint8(len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		name := byte(0)
		// The positional default name ("B", "L", "T2", …) may always be
		// spelled out; otherwise a single trailing letter names the type.
		if def := CoreType(i).String(); len(p) > len(def) &&
			strings.EqualFold(p[len(p)-len(def):], def) {
			p = p[:len(p)-len(def)]
		} else if n := len(p); n > 0 {
			c := p[n-1]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c >= 'A' && c <= 'Z' {
				name = c
				p = p[:n-1]
			}
		}
		count, err := strconv.ParseInt(p, 10, 32) // counts are stored as int32
		if err != nil || count < 0 {
			return Resources{}, fmt.Errorf("core: invalid resource spec component %q (want e.g. \"4B\")",
				strings.TrimSpace(parts[i]))
		}
		r.counts[i] = int32(count)
		// Normalize explicit default names away so "16B,4L" == Res(16, 4).
		if name != 0 && string(name) != CoreType(i).String() {
			r.names[i] = name
		}
	}
	return r, nil
}

// NumTypes returns the number of core types the platform declares.
func (r Resources) NumTypes() int { return int(r.k) }

// Count returns the number of cores of type v, or 0 for types beyond the
// platform's type table.
func (r Resources) Count(v CoreType) int {
	if int(v) >= int(r.k) {
		return 0
	}
	return int(r.counts[v])
}

// Total returns the total number of cores across all types.
func (r Resources) Total() int {
	t := 0
	for v := 0; v < int(r.k); v++ {
		t += int(r.counts[v])
	}
	return t
}

// Consume returns a copy of r with u cores of type v removed. The count
// may go negative; NonNegative detects exhausted budgets.
func (r Resources) Consume(v CoreType, u int) Resources {
	r.counts[v] -= int32(u)
	return r
}

// NonNegative reports whether every type's core count is ≥ 0.
func (r Resources) NonNegative() bool {
	for v := 0; v < int(r.k); v++ {
		if r.counts[v] < 0 {
			return false
		}
	}
	return true
}

// Only returns a copy of r with every core count zeroed except type v's;
// the type table (count of types, names) is preserved.
func (r Resources) Only(v CoreType) Resources {
	for i := 0; i < int(r.k); i++ {
		if CoreType(i) != v {
			r.counts[i] = 0
		}
	}
	return r
}

// With returns a copy of r with type v's core count set to n.
func (r Resources) With(v CoreType, n int) Resources {
	r.counts[v] = int32(n)
	return r
}

// TypeName returns the display name of core type v: the platform-declared
// one-letter name when set, the conventional default (B, L, T2, …)
// otherwise.
func (r Resources) TypeName(v CoreType) string {
	if int(v) < int(r.k) && r.names[v] != 0 {
		return string(r.names[v])
	}
	return v.String()
}

// String formats the platform in the paper's R=(b,l) notation, one
// component per type: "(16B,4L)", or "(4B,2M,8L)" for a named three-type
// platform.
func (r Resources) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for v := 0; v < int(r.k); v++ {
		if v > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d%s", r.counts[v], r.TypeName(CoreType(v)))
	}
	sb.WriteByte(')')
	return sb.String()
}

// withCounts returns a copy of r whose counts are replaced by used —
// a formatting helper so usage vectors print with the platform's names.
func (r Resources) withCounts(used []int) Resources {
	for v := 0; v < int(r.k) && v < len(used); v++ {
		r.counts[v] = int32(used[v])
	}
	return r
}

// Chain is an immutable task chain with precomputed prefix sums so that
// interval weights (Eq. 1) and replicability queries cost O(1).
type Chain struct {
	tasks     []Task
	prefix    [][]float64 // prefix[v][i] = Σ weight of tasks[0:i] on v
	seqPrefix []int       // seqPrefix[i] = #sequential tasks in tasks[0:i]
	fp        uint64      // stable content hash, see Fingerprint
}

// NewChain builds a chain from tasks. It returns an error if the chain is
// empty, if any task has a negative or NaN weight, if the tasks do not
// agree on the number of core types (every task must carry one weight per
// type), or if a type's total weight is not finite: every period is a sum
// of weights, and an infinite one cannot be compared or scheduled.
func NewChain(tasks []Task) (*Chain, error) {
	if len(tasks) == 0 {
		return nil, errors.New("core: empty task chain")
	}
	k := len(tasks[0].Weight)
	if k == 0 {
		return nil, fmt.Errorf("core: task 0 (%q) declares no weights", tasks[0].Name)
	}
	if k > MaxCoreTypes {
		return nil, fmt.Errorf("core: task 0 (%q) declares %d weights, max %d core types",
			tasks[0].Name, k, MaxCoreTypes)
	}
	c := &Chain{tasks: append([]Task(nil), tasks...)}
	c.prefix = make([][]float64, k)
	for v := 0; v < k; v++ {
		c.prefix[v] = make([]float64, len(tasks)+1)
	}
	c.seqPrefix = make([]int, len(tasks)+1)
	// Deep-copy the weight vectors so the chain stays immutable even if the
	// caller mutates its task slice afterwards. The copies are carved from
	// one backing array (one allocation per chain, not per task); the
	// three-index slices cap each vector at its own k words, so an append
	// to one task's weights can never reach its neighbor's.
	weights := make([]float64, len(tasks)*k)
	for i, t := range c.tasks {
		if len(t.Weight) != k {
			return nil, fmt.Errorf("core: task %d (%q) declares %d weights, chain has %d core types",
				i, t.Name, len(t.Weight), k)
		}
		c.tasks[i].Weight = weights[i*k : (i+1)*k : (i+1)*k]
		copy(c.tasks[i].Weight, t.Weight)
		for v := 0; v < k; v++ {
			if t.Weight[v] < 0 || math.IsNaN(t.Weight[v]) {
				return nil, fmt.Errorf("core: task %d (%q) has invalid weight %v on %v",
					i, t.Name, t.Weight[v], CoreType(v))
			}
			c.prefix[v][i+1] = c.prefix[v][i] + t.Weight[v]
		}
		c.seqPrefix[i+1] = c.seqPrefix[i]
		if !t.Replicable {
			c.seqPrefix[i+1]++
		}
	}
	for v, p := range c.prefix {
		if total := p[len(tasks)]; math.IsInf(total, 0) {
			return nil, fmt.Errorf("core: total weight on %v is %v: the chain's weights must sum to a finite number",
				CoreType(v), total)
		}
	}
	c.fp = fingerprintTasks(c.tasks)
	return c, nil
}

// MustChain is like NewChain but panics on error. It is intended for tests
// and examples with known-good inputs.
func MustChain(tasks []Task) *Chain {
	c, err := NewChain(tasks)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of tasks in the chain.
func (c *Chain) Len() int { return len(c.tasks) }

// NumTypes returns the number of core types the chain's tasks declare
// weights for.
func (c *Chain) NumTypes() int { return len(c.prefix) }

// Task returns task i (0-based).
func (c *Chain) Task(i int) Task { return c.tasks[i] }

// Tasks returns a copy of the task slice.
func (c *Chain) Tasks() []Task { return append([]Task(nil), c.tasks...) }

// SumW returns the sum of the weights of tasks s..e (inclusive, 0-based)
// on core type v.
func (c *Chain) SumW(s, e int, v CoreType) float64 {
	return c.prefix[v][e+1] - c.prefix[v][s]
}

// PrefixW returns the prefix sums of the task weights on core type v:
// PrefixW(v)[i] is the weight of tasks[0:i], so SumW(s, e, v) is
// PrefixW(v)[e+1] - PrefixW(v)[s]. It lets a hot loop hoist the per-type
// lookup SumW repeats on every call. The slice is the chain's own and must
// not be modified.
func (c *Chain) PrefixW(v CoreType) []float64 { return c.prefix[v] }

// TotalW returns the sum of all task weights on core type v.
func (c *Chain) TotalW(v CoreType) float64 { return c.prefix[v][len(c.tasks)] }

// IsRep reports whether the interval [s, e] (inclusive, 0-based) contains
// only replicable tasks (paper's IsRep, Algo 3).
func (c *Chain) IsRep(s, e int) bool {
	return c.seqPrefix[e+1] == c.seqPrefix[s]
}

// FinalRepTask returns the largest index i ≥ e such that [s, i] is fully
// replicable (paper's FinalRepTask, Algo 3). It assumes IsRep(s, e).
// seqPrefix is non-decreasing, so the boundary is found by binary search
// in O(log n) instead of walking the replicable run.
func (c *Chain) FinalRepTask(s, e int) int {
	// [s, i] is fully replicable ⟺ no sequential task in (e, i], i.e.
	// seqPrefix[i+1] == seqPrefix[e+1] (IsRep(s, e) covers the prefix).
	want := c.seqPrefix[e+1]
	lo, hi := e, len(c.tasks)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if c.seqPrefix[mid+1] == want {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Weight implements Eq. 1: the weight of the stage holding tasks s..e
// (inclusive, 0-based) when executed by r cores of type v. A stage
// containing a sequential task cannot exploit more than one core; a fully
// replicable stage divides its work across the r replicas; r < 1 yields
// +Inf (no valid execution).
func (c *Chain) Weight(s, e, r int, v CoreType) float64 {
	if r < 1 {
		return math.Inf(1)
	}
	w := c.SumW(s, e, v)
	if c.IsRep(s, e) {
		return w / float64(r)
	}
	return w
}

// Stage is one pipeline stage of a schedule: the contiguous interval of
// tasks [Start, End] (inclusive, 0-based) executed by Cores cores of type
// Type.
type Stage struct {
	Start, End int
	Cores      int
	Type       CoreType
}

// Tasks returns the number of tasks in the stage.
func (s Stage) Tasks() int { return s.End - s.Start + 1 }

// String formats the stage in the paper's (n_tasks, r_v) notation.
func (s Stage) String() string { return s.named(Resources{}) }

// named is String with the core type named by r's type table.
func (s Stage) named(r Resources) string {
	return fmt.Sprintf("(%d,%d%s)", s.Tasks(), s.Cores, r.TypeName(s.Type))
}

// Solution is a pipelined-and-replicated schedule: an ordered list of
// stages. The zero value is the empty (invalid) solution used by the
// heuristics to signal failure.
type Solution struct {
	Stages []Stage
}

// IsEmpty reports whether the solution holds no stages (the (∅,∅,∅)
// failure marker of the paper's algorithms).
func (s Solution) IsEmpty() bool { return len(s.Stages) == 0 }

// Period implements Eq. 2: the maximum stage weight of the solution.
// The period of an empty solution is +Inf.
func (s Solution) Period(c *Chain) float64 {
	if s.IsEmpty() {
		return math.Inf(1)
	}
	p := 0.0
	for _, st := range s.Stages {
		if w := c.Weight(st.Start, st.End, st.Cores, st.Type); w > p {
			p = w
		}
	}
	return p
}

// Usage returns the per-type core consumption of the solution as a vector
// of k counts; stages whose type falls outside [0, k) are ignored (IsValid
// and Validate reject them explicitly).
func (s Solution) Usage(k int) []int {
	used := make([]int, k)
	for _, st := range s.Stages {
		if int(st.Type) < k {
			used[st.Type] += st.Cores
		}
	}
	return used
}

// CoresUsed returns the number of big (type 0) and little (type 1) cores
// consumed by the solution — the two-type reading of Usage, kept for the
// paper's canonical k=2 platforms.
func (s Solution) CoresUsed() (big, little int) {
	for _, st := range s.Stages {
		switch st.Type {
		case Big:
			big += st.Cores
		case Little:
			little += st.Cores
		}
	}
	return big, little
}

// IsValid implements the paper's IsValid (Algo 3): the solution is
// non-empty, its period does not exceed target, and it respects the
// available per-type resources.
func (s Solution) IsValid(c *Chain, r Resources, target float64) bool {
	if s.IsEmpty() {
		return false
	}
	k := r.NumTypes()
	var used [MaxCoreTypes]int
	for _, st := range s.Stages {
		if int(st.Type) >= k {
			return false
		}
		used[st.Type] += st.Cores
	}
	for v := 0; v < k; v++ {
		if used[v] > r.Count(CoreType(v)) {
			return false
		}
	}
	return s.Period(c) <= target
}

// Validate performs the structural checks that IsValid leaves implicit:
// stages must tile the whole chain contiguously, each stage must use at
// least one core, and every stage's type must exist in the platform's
// type table. It returns a descriptive error on the first violation.
func (s Solution) Validate(c *Chain, r Resources) error {
	if s.IsEmpty() {
		return errors.New("core: empty solution")
	}
	next := 0
	for i, st := range s.Stages {
		if st.Start != next {
			return fmt.Errorf("core: stage %d starts at task %d, want %d", i, st.Start, next)
		}
		if st.End < st.Start || st.End >= c.Len() {
			return fmt.Errorf("core: stage %d has invalid interval [%d,%d]", i, st.Start, st.End)
		}
		if st.Cores < 1 {
			return fmt.Errorf("core: stage %d uses %d cores", i, st.Cores)
		}
		if int(st.Type) >= r.NumTypes() {
			return fmt.Errorf("core: stage %d uses core type %v, platform has %d types",
				i, st.Type, r.NumTypes())
		}
		if st.Cores > 1 && !c.IsRep(st.Start, st.End) {
			return fmt.Errorf("core: stage %d replicates a sequential interval [%d,%d]",
				i, st.Start, st.End)
		}
		next = st.End + 1
	}
	if next != c.Len() {
		return fmt.Errorf("core: solution covers tasks [0,%d), chain has %d tasks", next, c.Len())
	}
	used := s.Usage(r.NumTypes())
	for v, u := range used {
		if u > r.Count(CoreType(v)) {
			return fmt.Errorf("core: solution uses %v cores, available %v",
				r.withCounts(used), r)
		}
	}
	return nil
}

// MergeReplicable returns a copy of s where consecutive stages that are
// both fully replicable and use the same core type are fused into a single
// stage holding the union of their tasks and cores. The paper applies this
// post-pass to HeRAD's schedules: it never changes the period but yields
// shorter pipelines.
func (s Solution) MergeReplicable(c *Chain) Solution {
	if s.IsEmpty() {
		return s
	}
	out := []Stage{s.Stages[0]}
	for _, st := range s.Stages[1:] {
		last := &out[len(out)-1]
		if last.Type == st.Type &&
			c.IsRep(last.Start, last.End) && c.IsRep(st.Start, st.End) {
			last.End = st.End
			last.Cores += st.Cores
			continue
		}
		out = append(out, st)
	}
	return Solution{Stages: out}
}

// Throughput converts a period expressed in microseconds into processed
// frames per second, given the number of frames handled per pipeline slot
// (the "interframe" level of the DVB-S2 experiments).
func Throughput(periodMicros float64, interframe int) float64 {
	if periodMicros <= 0 {
		return math.Inf(1)
	}
	return 1e6 / periodMicros * float64(interframe)
}

// String formats the solution as the paper's pipeline decompositions,
// e.g. "(5,1B),(1,1B),(9,1B),(1,2B),(2,1L)".
func (s Solution) String() string { return s.Named(Resources{}) }

// Named is String with the stage types named by r's type table
// (Resources.TypeName): "(1,1B),(1,8L),(1,1M)" on a "1B,1M,8L" platform,
// where String prints "(1,1B),(1,8T2),(1,1L)".
func (s Solution) Named(r Resources) string {
	if s.IsEmpty() {
		return "(∅)"
	}
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = st.named(r)
	}
	return strings.Join(parts, ",")
}
