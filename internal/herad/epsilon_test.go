package herad

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// TestEpsilonZeroBitIdentical pins that Options.Epsilon, accepted and
// ignored for as long as bench/ sets it, leaves the fill exact: zero,
// negative or positive, the solution is the paper-literal reference's,
// stage for stage.
func TestEpsilonZeroBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(24)
		c := chaingen.Generate(chaingen.Default(n, []float64{0, 0.3, 0.5, 0.8, 1}[rng.Intn(5)]), rng)
		b, l := 1+rng.Intn(5), rng.Intn(5)
		want, _ := refSchedule(c, b, l, false)
		for _, eps := range []float64{0, -0.5, 0.05, 1} {
			got := ScheduleOpts(c, core.Res(b, l), Options{Raw: true, Epsilon: eps})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: eps %v diverged from exact\n got %v\nwant %v\nchain=%+v R=(%d,%d)",
					iter, eps, got, want, c.Tasks(), b, l)
			}
		}
	}
}

// TestEpsilonNaN pins that a NaN Epsilon cannot poison the fill.
func TestEpsilonNaN(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 20, false), task(8, 16, true), task(4, 9, true)})
	r := core.Res(2, 2)
	want := Schedule(c, r)
	got := ScheduleOpts(c, r, Options{Epsilon: math.NaN()})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NaN epsilon diverged: %v vs %v", got, want)
	}
}
