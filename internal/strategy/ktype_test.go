package strategy

import (
	"strings"
	"testing"

	"ampsched/internal/core"
)

func testChain3(t testing.TB) *core.Chain {
	t.Helper()
	return core.MustChain([]core.Task{
		{Name: "a", Weight: core.Weights(40, 90, 60), Replicable: false},
		{Name: "b", Weight: core.Weights(120, 300, 180), Replicable: true},
		{Name: "c", Weight: core.Weights(200, 520, 330), Replicable: true},
	})
}

// TestCheckTypes covers the registry's type-table gate directly: the
// two-type strategies reject k≠2 platforms with a descriptive error, the
// k-generic ones and Schedulers outside the table accept them, and
// chain/platform disagreement is always an error.
func TestCheckTypes(t *testing.T) {
	c2, c3 := testChain(t), testChain3(t)
	r3 := core.Res(2, 2, 2)
	for _, name := range []string{"2CATAC", "FERTAC", "OTAC (B)", "OTAC (L)"} {
		err := CheckTypes(MustParse(name), c3, r3)
		if err == nil || !strings.Contains(err.Error(), "supports exactly 2 core types") {
			t.Errorf("%s on %v: err = %v, want a supports-exactly-2 error", name, r3, err)
		}
	}
	for _, name := range []string{"HeRAD", "Brute"} {
		if err := CheckTypes(MustParse(name), c3, r3); err != nil {
			t.Errorf("%s on %v: unexpected %v", name, r3, err)
		}
	}
	if err := CheckTypes(MustParse("HeRAD"), c2, r3); err == nil {
		t.Error("2-type chain on 3-type platform accepted")
	}
	if err := CheckTypes(MustParse("2CATAC"), c2, core.Res(4, 4)); err != nil {
		t.Errorf("2-type happy path: %v", err)
	}
	fake := fakeScheduler{name: "fake"}
	if err := CheckTypes(fake, c3, r3); err != nil {
		t.Errorf("scheduler outside the table on %v: unexpected %v", r3, err)
	}
	if err := CheckTypes(fake, c2, r3); err == nil {
		t.Error("scheduler outside the table: 2-type chain on 3-type platform accepted")
	}
}

// TestPlanBatchRejectsTypeMismatch: a k=3 request on a two-type strategy
// fails loudly through PlanBatch — a clear error, an empty solution, and
// no caching of the rejected request.
func TestPlanBatchRejectsTypeMismatch(t *testing.T) {
	c3 := testChain3(t)
	r3 := core.Res(2, 2, 2)
	cache := NewCache()
	reqs := []Request{
		{Chain: c3, Resources: r3, Scheduler: MustParse("fertac"), Options: Options{Cache: cache}},
		{Chain: c3, Resources: r3, Scheduler: MustParse("herad"), Options: Options{Cache: cache}},
	}
	res := PlanBatch(reqs, 1)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "supports exactly 2 core types") {
		t.Errorf("FERTAC on k=3: err = %v", res[0].Err)
	}
	if !res[0].Solution.IsEmpty() {
		t.Errorf("FERTAC on k=3 returned a solution: %v", res[0].Solution)
	}
	if res[1].Err != nil {
		t.Errorf("HeRAD on k=3: %v", res[1].Err)
	}
	if err := res[1].Solution.Validate(c3, r3); err != nil {
		t.Errorf("HeRAD k=3 schedule invalid: %v", err)
	}
	// Only the HeRAD solve entered the cache; the rejected request must
	// not have been stored (a second batch re-fails with the same error).
	if len(cache.m) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(cache.m))
	}
	res2 := PlanBatch(reqs[:1], 1)
	if res2[0].Err == nil || res2[0].Err.Error() != res[0].Err.Error() {
		t.Errorf("re-batched mismatch: err = %v, want %v", res2[0].Err, res[0].Err)
	}
}

// TestSchedulerDirectCallK3 covers the defensive guard on direct Schedule
// calls, which bypass CheckTypes: two-type strategies return an empty
// solution instead of misreading a k=3 platform.
func TestSchedulerDirectCallK3(t *testing.T) {
	c3 := testChain3(t)
	r3 := core.Res(2, 2, 2)
	for _, name := range []string{"2CATAC", "FERTAC", "OTAC (B)", "OTAC (L)"} {
		if s := MustParse(name).Schedule(c3, r3, Options{}); !s.IsEmpty() {
			t.Errorf("%s scheduled a k=3 platform: %v", name, s)
		}
	}
	if s := MustParse("HeRAD").Schedule(c3, r3, Options{}); s.IsEmpty() {
		t.Error("HeRAD found no k=3 schedule")
	}
}
