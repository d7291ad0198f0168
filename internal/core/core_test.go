package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func task(wb, wl float64, rep bool) Task {
	return Task{Weight: Weights(wb, wl), Replicable: rep}
}

func testChain(t *testing.T) *Chain {
	t.Helper()
	c, err := NewChain([]Task{
		task(10, 20, false),
		task(4, 8, true),
		task(6, 12, true),
		task(30, 90, false),
		task(2, 2, true),
	})
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return c
}

func TestNewChainErrors(t *testing.T) {
	if _, err := NewChain(nil); err == nil {
		t.Error("NewChain(nil) should fail")
	}
	if _, err := NewChain([]Task{}); err == nil {
		t.Error("NewChain(empty) should fail")
	}
	if _, err := NewChain([]Task{task(-1, 1, true)}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewChain([]Task{task(1, math.NaN(), true)}); err == nil {
		t.Error("NaN weight should fail")
	}
	// Every weight is finite, but the per-type total overflows to +Inf.
	if _, err := NewChain([]Task{task(1e308, 1, true), task(1e308, 1, true)}); err == nil {
		t.Error("non-finite total weight should fail")
	}
	if _, err := NewChain([]Task{task(1, math.Inf(1), true)}); err == nil {
		t.Error("+Inf weight should fail")
	}
	if _, err := NewChain([]Task{task(1, 1, true)}); err != nil {
		t.Errorf("valid single-task chain rejected: %v", err)
	}
}

// TestNewChainAllocsIndependentOfLength pins the chain's allocation shape:
// a fixed handful of slices however long the chain, not one weight copy per
// task — while the chain still owns its weights (mutating or appending to
// the caller's or a neighbor's vector never reaches it).
func TestNewChainAllocsIndependentOfLength(t *testing.T) {
	build := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = task(float64(i+1), float64(2*i+2), i%2 == 0)
		}
		return tasks
	}
	short, long := build(8), build(2048)
	allocs := func(tasks []Task) float64 {
		return testing.AllocsPerRun(10, func() { MustChain(tasks) })
	}
	if a, b := allocs(short), allocs(long); a != b {
		t.Errorf("NewChain allocates %v times for 8 tasks, %v for 2048", a, b)
	}
	c := MustChain(short)
	short[3].Weight[0] = -1
	grown := append(c.Task(2).Weight, 99)
	grown[0] = -1
	if c.Task(3).W(Big) != 4 || c.Task(2).W(Big) != 3 {
		t.Errorf("chain weights aliased: task 2 %v, task 3 %v", c.Task(2).Weight, c.Task(3).Weight)
	}
}

func TestMustChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustChain(nil) should panic")
		}
	}()
	MustChain(nil)
}

func TestCoreTypeString(t *testing.T) {
	if Big.String() != "B" || Little.String() != "L" {
		t.Errorf("got %q %q", Big.String(), Little.String())
	}
	if got := CoreType(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown core type formats as %q", got)
	}
	if CoreType(2).String() != "T2" {
		t.Errorf("type 2 formats as %q", CoreType(2).String())
	}
}

func TestResources(t *testing.T) {
	r := Res(3, 5)
	if r.Total() != 8 || r.Count(Big) != 3 || r.Count(Little) != 5 {
		t.Errorf("accessors wrong: %+v", r)
	}
	if got := r.Consume(Big, 2); got.Count(Big) != 1 || got.Count(Little) != 5 {
		t.Errorf("Consume(Big,2) = %v", got)
	}
	if got := r.Consume(Little, 5); got.Count(Little) != 0 {
		t.Errorf("Consume(Little,5) = %v", got)
	}
	if r.String() != "(3B,5L)" {
		t.Errorf("String = %q", r.String())
	}
}

func TestSumWAndPrefix(t *testing.T) {
	c := testChain(t)
	if got := c.SumW(0, 4, Big); got != 52 {
		t.Errorf("SumW all big = %v, want 52", got)
	}
	if got := c.SumW(1, 2, Little); got != 20 {
		t.Errorf("SumW(1,2,L) = %v, want 20", got)
	}
	if got := c.TotalW(Little); got != 132 {
		t.Errorf("TotalW little = %v, want 132", got)
	}
	if got := c.SumW(3, 3, Big); got != 30 {
		t.Errorf("SumW single = %v, want 30", got)
	}
	if p := c.PrefixW(Little); len(p) != c.Len()+1 || p[3]-p[1] != c.SumW(1, 2, Little) {
		t.Errorf("PrefixW(L) = %v disagrees with SumW", p)
	}
}

func TestIsRepAndFinalRepTask(t *testing.T) {
	c := testChain(t)
	cases := []struct {
		s, e int
		want bool
	}{
		{0, 0, false}, {1, 1, true}, {1, 2, true}, {1, 3, false},
		{4, 4, true}, {0, 4, false}, {2, 2, true},
	}
	for _, tc := range cases {
		if got := c.IsRep(tc.s, tc.e); got != tc.want {
			t.Errorf("IsRep(%d,%d) = %v, want %v", tc.s, tc.e, got, tc.want)
		}
	}
	if got := c.FinalRepTask(1, 1); got != 2 {
		t.Errorf("FinalRepTask(1,1) = %d, want 2", got)
	}
	if got := c.FinalRepTask(4, 4); got != 4 {
		t.Errorf("FinalRepTask(4,4) = %d, want 4", got)
	}
}

func TestWeightEq1(t *testing.T) {
	c := testChain(t)
	// Replicable stage divides by r.
	if got := c.Weight(1, 2, 2, Big); got != 5 {
		t.Errorf("rep stage weight = %v, want 5", got)
	}
	// Sequential stage ignores extra cores.
	if got := c.Weight(0, 1, 3, Big); got != 14 {
		t.Errorf("seq stage weight = %v, want 14", got)
	}
	// r < 1 is invalid.
	if got := c.Weight(0, 1, 0, Big); !math.IsInf(got, 1) {
		t.Errorf("0-core weight = %v, want +Inf", got)
	}
	// Little-core weights are used for Little.
	if got := c.Weight(1, 2, 1, Little); got != 20 {
		t.Errorf("little weight = %v, want 20", got)
	}
}

// MaxWeight returns the largest single-task weight on core type v.
func (c *Chain) MaxWeight(v CoreType) float64 {
	m := 0.0
	for _, t := range c.tasks {
		if t.Weight[v] > m {
			m = t.Weight[v]
		}
	}
	return m
}

// MaxSeqWeight returns the largest weight among sequential tasks on core
// type v, or 0 if every task is replicable.
func (c *Chain) MaxSeqWeight(v CoreType) float64 {
	m := 0.0
	for _, t := range c.tasks {
		if !t.Replicable && t.Weight[v] > m {
			m = t.Weight[v]
		}
	}
	return m
}

// SeqCount returns the number of sequential (stateful) tasks.
func (c *Chain) SeqCount() int { return c.seqPrefix[len(c.tasks)] }

func TestMaxWeights(t *testing.T) {
	c := testChain(t)
	if got := c.MaxWeight(Big); got != 30 {
		t.Errorf("MaxWeight(B) = %v", got)
	}
	if got := c.MaxSeqWeight(Little); got != 90 {
		t.Errorf("MaxSeqWeight(L) = %v", got)
	}
	if got := c.SeqCount(); got != 2 {
		t.Errorf("SeqCount = %d", got)
	}
	allRep := MustChain([]Task{task(1, 1, true)})
	if got := allRep.MaxSeqWeight(Big); got != 0 {
		t.Errorf("MaxSeqWeight with no seq tasks = %v, want 0", got)
	}
}

func TestSolutionPeriodAndUsage(t *testing.T) {
	c := testChain(t)
	s := Solution{Stages: []Stage{
		{Start: 0, End: 0, Cores: 1, Type: Big},
		{Start: 1, End: 2, Cores: 2, Type: Little},
		{Start: 3, End: 4, Cores: 1, Type: Big},
	}}
	// Stage weights: 10, 20/2=10, 32 → period 32.
	if got := s.Period(c); got != 32 {
		t.Errorf("Period = %v, want 32", got)
	}
	b, l := s.CoresUsed()
	if b != 2 || l != 2 {
		t.Errorf("CoresUsed = (%d,%d), want (2,2)", b, l)
	}
	if !s.IsValid(c, Res(2, 2), 32) {
		t.Error("solution should be valid at its own period")
	}
	if s.IsValid(c, Res(2, 2), 31.9) {
		t.Error("solution should be invalid below its period")
	}
	if s.IsValid(c, Res(1, 2), 32) {
		t.Error("solution should be invalid with fewer big cores")
	}
	if (Solution{}).IsValid(c, Res(9, 9), 1e18) {
		t.Error("empty solution must be invalid")
	}
	if p := (Solution{}).Period(c); !math.IsInf(p, 1) {
		t.Errorf("empty solution period = %v, want +Inf", p)
	}
}

func TestValidateStructural(t *testing.T) {
	c := testChain(t)
	r := Res(4, 4)
	good := Solution{Stages: []Stage{
		{Start: 0, End: 2, Cores: 1, Type: Big},
		{Start: 3, End: 4, Cores: 1, Type: Little},
	}}
	if err := good.Validate(c, r); err != nil {
		t.Errorf("good solution rejected: %v", err)
	}
	bad := []Solution{
		{},
		{Stages: []Stage{{Start: 1, End: 4, Cores: 1, Type: Big}}},                                             // gap at start
		{Stages: []Stage{{Start: 0, End: 2, Cores: 1, Type: Big}}},                                             // does not cover
		{Stages: []Stage{{Start: 0, End: 4, Cores: 0, Type: Big}}},                                             // zero cores
		{Stages: []Stage{{Start: 0, End: 4, Cores: 2, Type: Big}}},                                             // replicated seq
		{Stages: []Stage{{Start: 0, End: 5, Cores: 1, Type: Big}}},                                             // out of range
		{Stages: []Stage{{Start: 0, End: 4, Cores: 1, Type: Big}, {Start: 3, End: 4, Cores: 1, Type: Little}}}, // overlap
	}
	for i, s := range bad {
		if err := s.Validate(c, r); err == nil {
			t.Errorf("bad solution %d accepted: %v", i, s)
		}
	}
	over := Solution{Stages: []Stage{{Start: 0, End: 4, Cores: 1, Type: Big}}}
	if err := over.Validate(c, Res(0, 9)); err == nil {
		t.Error("over-budget solution accepted")
	}
}

func TestMergeReplicable(t *testing.T) {
	c := MustChain([]Task{
		task(10, 10, true), task(10, 10, true), task(10, 10, true), task(5, 5, false),
	})
	s := Solution{Stages: []Stage{
		{Start: 0, End: 0, Cores: 1, Type: Big},
		{Start: 1, End: 2, Cores: 2, Type: Big},
		{Start: 3, End: 3, Cores: 1, Type: Little},
	}}
	m := s.MergeReplicable(c)
	if len(m.Stages) != 2 {
		t.Fatalf("merged into %d stages, want 2: %v", len(m.Stages), m)
	}
	if m.Stages[0] != (Stage{Start: 0, End: 2, Cores: 3, Type: Big}) {
		t.Errorf("merged stage = %+v", m.Stages[0])
	}
	if p, q := s.Period(c), m.Period(c); p < q {
		t.Errorf("merge increased period: %v -> %v", p, q)
	}
	// Different core types must not merge.
	s2 := Solution{Stages: []Stage{
		{Start: 0, End: 0, Cores: 1, Type: Big},
		{Start: 1, End: 2, Cores: 2, Type: Little},
		{Start: 3, End: 3, Cores: 1, Type: Little},
	}}
	if m2 := s2.MergeReplicable(c); len(m2.Stages) != 3 {
		t.Errorf("cross-type merge happened: %v", m2)
	}
	if e := (Solution{}).MergeReplicable(c); !e.IsEmpty() {
		t.Error("merging empty solution should stay empty")
	}
}

func TestMergeNeverIncreasesPeriodProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + rng.Intn(8)
		tasks := make([]Task, n)
		for i := range tasks {
			w := 1 + float64(rng.Intn(50))
			tasks[i] = task(w, w*2, rng.Intn(2) == 0)
		}
		c := MustChain(tasks)
		// Random contiguous partition with random cores.
		var stages []Stage
		s := 0
		for s < n {
			e := s + rng.Intn(n-s)
			cores := 1
			if c.IsRep(s, e) {
				cores = 1 + rng.Intn(3)
			}
			v := Big
			if rng.Intn(2) == 0 {
				v = Little
			}
			stages = append(stages, Stage{Start: s, End: e, Cores: cores, Type: v})
			s = e + 1
		}
		sol := Solution{Stages: stages}
		merged := sol.MergeReplicable(c)
		if err := merged.Validate(c, Res(99, 99)); err != nil {
			t.Logf("merge broke structure: %v", err)
			return false
		}
		return merged.Period(c) <= sol.Period(c)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestThroughput(t *testing.T) {
	// 1128.7 µs period at interframe 4 ≈ 3544 FPS (Table II, S1).
	if got := Throughput(1128.7, 4); math.Abs(got-3544) > 1 {
		t.Errorf("Throughput(1128.7, 4) = %v, want ≈3544", got)
	}
	if got := Throughput(0, 4); !math.IsInf(got, 1) {
		t.Errorf("Throughput(0) = %v", got)
	}
}

func TestStringFormats(t *testing.T) {
	s := Solution{Stages: []Stage{
		{Start: 0, End: 4, Cores: 1, Type: Big},
		{Start: 5, End: 5, Cores: 2, Type: Little},
	}}
	if got := s.String(); got != "(5,1B),(1,2L)" {
		t.Errorf("Solution.String = %q", got)
	}
	if got := (Solution{}).String(); got != "(∅)" {
		t.Errorf("empty Solution.String = %q", got)
	}
}
