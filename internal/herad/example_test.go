package herad_test

import (
	"fmt"
	"math/rand"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/strategy"
)

// ExampleSchedule computes the optimal schedule of a small
// partially-replicable chain on a 1-big + 2-little platform.
func ExampleSchedule() {
	chain := core.MustChain([]core.Task{
		{Name: "ingest", Weight: core.Weights(10, 20), Replicable: false},
		{Name: "decode", Weight: core.Weights(8, 16), Replicable: true},
		{Name: "check", Weight: core.Weights(8, 16), Replicable: true},
	})
	sol := herad.Schedule(chain, core.Res(1, 2))
	fmt.Println(sol)
	fmt.Println("period:", sol.Period(chain))
	// Output:
	// (1,1B),(2,2L)
	// period: 16
}

// Example_threeTypes schedules chains on a big/little/medium platform.
// HeRAD's fill takes any number of core types; a small instance is checked
// against exhaustive enumeration, and the two-type strategies decline the
// platform through strategy.CheckTypes.
func Example_threeTypes() {
	// chaingen.Default3 draws a "medium" slowdown in [1,3], between big (1)
	// and little ([1,5]). Extra types follow the paper's two, so the type
	// order is big, little, medium.
	r, err := core.ParseResources("4B,8L,2M")
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := chaingen.Default3(12, 0.5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		c := chaingen.Generate(cfg, rng)
		s := herad.Schedule(c, r)
		fmt.Printf("chain %d: period %6.2f  usage %v  %s\n", i, s.Period(c), s.Usage(r.NumTypes()), s.Named(r))
	}

	small := chaingen.Generate(chaingen.Default3(6, 0.5), rng)
	sr := core.Res(2, 2, 1)
	fmt.Printf("6 tasks on %v: HeRAD %.2f, brute force %.2f\n",
		sr, herad.Schedule(small, sr).Period(small), brute.MinPeriod(small, sr))

	c := chaingen.Generate(cfg, rng)
	for _, s := range strategy.All() {
		if err := strategy.CheckTypes(s, c, r); err != nil {
			fmt.Printf("%-9s %v\n", s.Name(), err)
		} else {
			fmt.Printf("%-9s ok\n", s.Name())
		}
	}
	// Output:
	// chain 0: period  89.00  usage [4 8 2]  (1,2L),(1,1B),(1,1L),(1,1B),(1,2L),(1,1B),(1,1M),(2,1B),(2,3L),(1,1M)
	// chain 1: period  97.00  usage [4 6 2]  (1,2M),(1,2L),(1,1B),(2,1L),(1,1B),(1,1B),(1,1L),(1,1L),(1,1L),(2,1B)
	// chain 2: period 123.00  usage [4 8 2]  (2,3L),(2,1B),(2,1B),(1,1B),(1,1M),(1,1B),(1,1M),(2,5L)
	// 6 tasks on (2B,2L,1T2): HeRAD 103.00, brute force 103.00
	// HeRAD     ok
	// 2CATAC    strategy: 2CATAC supports exactly 2 core types, resources (4B,8L,2M) declare 3
	// FERTAC    strategy: FERTAC supports exactly 2 core types, resources (4B,8L,2M) declare 3
	// OTAC (B)  strategy: OTAC (B) supports exactly 2 core types, resources (4B,8L,2M) declare 3
	// OTAC (L)  strategy: OTAC (L) supports exactly 2 core types, resources (4B,8L,2M) declare 3
}
