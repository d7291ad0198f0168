package herad

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// checkDeadCellsClosed fails the test unless the suffix bound of c on the
// two-type r under b (suffixLive) is closed the way the fill relies on it
// (recompute, cut 7):
//
//   - the dead set is down-closed in the row and up-closed in each count;
//   - every neighbor of a live cell, one core of a type less, is live;
//   - every predecessor a live cell reaches by a stage whose weight, as the
//     fill computes it, is within b is live;
//   - the bounded fill's extraction visits no dead cell, and when the
//     optimum is within b neither does the unbounded fill's, whose path is
//     the optimal one.
//
// States of no cores are never dead (fillRow stores them as +Inf), and
// neither is row 0, the zero cell.
func checkDeadCellsClosed(t *testing.T, c *core.Chain, r core.Resources, b float64) {
	t.Helper()
	live := suffixLive(c, r, b, new([]float64))
	if live == nil {
		t.Fatalf("R=%v bound=%v: no suffix bound on a two-type platform under a finite bound", r, b)
	}
	f := rowFill{live: live}
	n, nb, nl := c.Len(), r.Count(core.Big), r.Count(core.Little)
	states, stride, total := (nb+1)*(nl+1), [2]int{nl + 1, 1}, [2]int{nb, nl}
	dead := func(j, s int) bool { return j > 0 && s > 0 && f.dead(j, s) }
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("R=%v n=%d bound=%v: "+format+"\nchain=%+v", append(append([]any{r, n, b}, args...), c.Tasks())...)
	}
	for j := 1; j <= n; j++ {
		for s := 1; s < states; s++ {
			left := [2]int{s / stride[0], s % stride[0]}
			if dead(j, s) {
				if j > 1 && !dead(j-1, s) {
					fail("cell (row %d, state %d) is dead and the one a row above is live", j, s)
				}
				for v := range left {
					if left[v] < total[v] && !dead(j, s+stride[v]) {
						fail("cell (row %d, state %d) is dead and the one with a core of type %d more is live", j, s, v)
					}
				}
				continue
			}
			for v := range left {
				if left[v] > 0 && dead(j, s-stride[v]) {
					fail("cell (row %d, state %d) is live and its neighbor of type %d is dead", j, s, v)
				}
			}
			for i := 2; i <= j; i++ {
				rep := c.IsRep(i-1, j-1)
				for v := range left {
					pre := c.PrefixW(core.CoreType(v))
					for u := 1; u <= left[v] && (rep || u == 1); u++ {
						if stageWeight(pre[j]-pre[i-1], rep, u) <= b && dead(i-1, s-u*stride[v]) {
							fail("cell (row %d, state %d) is live and reaches dead cell (row %d, state %d) by %d cores of type %d within the bound",
								j, s, i-1, s-u*stride[v], u, v)
						}
					}
				}
			}
		}
	}
	bounded, free := newMatrix(n, r), newMatrix(n, r)
	bounded.fill(c, b, Metrics{})
	free.fill(c, math.Inf(1), Metrics{})
	for _, m := range []*matrix{bounded, free} {
		if m == free && free.cells[len(free.cells)-1].pbest > b {
			continue // the optimum is above b: no cell of its path need be live
		}
		for e, s := n, states-1; e >= 1; {
			if dead(e, s) {
				fail("the extraction visits dead cell (row %d, state %d)", e, s)
			}
			cl := m.cells[e*states+s]
			if math.IsInf(cl.pbest, 1) {
				break
			}
			e, s = int(cl.start), int(cl.prev)
		}
	}
}

// closedBounds returns the bounds checkDeadCellsClosed is run under for c
// on r: FERTAC's period, which Schedule fills under, and one that pick
// draws from the chain's own matrix (drawBound) — a cell's period, or the
// float64 just below or above it — where one is finite.
func closedBounds(c *core.Chain, r core.Resources, pick uint64) []float64 {
	var bs []float64
	if b := bound(c, r); !math.IsInf(b, 1) {
		bs = append(bs, b)
	}
	if _, b := drawBound(c, r, pick); !math.IsInf(b, 1) {
		bs = append(bs, b)
	}
	return bs
}

// TestDeadCellsClosed holds the suffix bound to the closure the fill
// relies on: synthetic chains up to 40 tasks on platforms up to (20,20),
// every cut family at k = 2 — zero weights and zero core counts among them
// — and weights of one decimal, whose sums round, under FERTAC's period
// and under bounds drawn from each chain's own matrix.
func TestDeadCellsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	srs := []float64{0.2, 0.5, 0.8, 1}
	check := func(t *testing.T, c *core.Chain, r core.Resources) {
		t.Helper()
		for _, b := range closedBounds(c, r, rng.Uint64()) {
			checkDeadCellsClosed(t, c, r, b)
		}
	}
	t.Run("synthetic", func(t *testing.T) {
		for _, n := range []int{2, 5, 10, 20, 40} {
			for iter := 0; iter < 60; iter++ {
				hi := []int{4, 10, 20}[iter%3]
				check(t, chaingen.Generate(chaingen.Default(n, srs[iter%len(srs)]), rng), core.Res(1+rng.Intn(hi), 1+rng.Intn(hi)))
			}
		}
	})
	for _, fam := range cutFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			for iter := 0; iter < 300; iter++ {
				r := core.Res(rng.Intn(7), rng.Intn(7))
				if fam.zeroCount {
					r = r.With(core.CoreType(iter%2), 0)
				}
				if r.Total() > 0 {
					check(t, fam.draw(rng, 2), r)
				}
			}
		})
	}
	t.Run("decimal-weights", func(t *testing.T) {
		decimals := cutFamily{maxN: 12, weight: func(rng *rand.Rand) float64 { return float64(rng.Intn(8)) / 10 }}
		for iter := 0; iter < 600; iter++ {
			if r := core.Res(rng.Intn(7), rng.Intn(7)); r.Total() > 0 {
				check(t, decimals.draw(rng, 2), r)
			}
		}
	})
}

// TestSuffixNeedRisesByRounding pins the case for suffixLive's running
// min over big-core counts: rounding alone can make the raw little-core
// need rise with b'. Task 2 weighs 5e-8 on little cores, below half an ulp
// of task 3's 1e9, so the suffix's little weight and the Fenwick prefix
// that holds both lose it. At b' = 0 task 2 straddles the big capacity
// (4 slack units of the big total, 3.64e-3, against its 0.004) and the
// need subtracts 0.909 of its 5e-8 explicitly; at b' = 1 it fits whole and
// nothing is subtracted for it. Under b = 0.096362 the raw need of rows
// 1..3 reads 0.09636200 ≤ b at b' = 0 and 0.09636205 > b at b' = 1: one
// little core, then two. With runMin = k the state of one big and one
// little core left would be dead while the one with no big core left
// stays live, and the table would not be up-closed.
func TestSuffixNeedRisesByRounding(t *testing.T) {
	c := core.MustChain([]core.Task{task(1, 1, true), task(1e9, 0.1, true), task(0.004, 5e-8, true), task(0, 1e9, true)})
	r, b := core.Res(2, 2), 0.096362
	checkDeadCellsClosed(t, c, r, b)
	want := []float64{0, 0, 2, 0, 0, 2, 0, 0, 2} // first live row of each state
	if live := suffixLive(c, r, b, new([]float64)); !slices.Equal(live, want) {
		t.Errorf("suffix table %v, want %v", live, want)
	}
}

// FuzzDeadCellsClosed is TestDeadCellsClosed on chains the fuzzer writes,
// in FuzzFillMatchesWalk's encoding: the bound byte picks the drawn bound,
// byte 0 and 1 of data are the core counts (≤ 8 each), every further byte
// is one task (≤ 64).
func FuzzDeadCellsClosed(f *testing.F) {
	f.Add(byte(3), []byte{2, 2, 0x49, 0x52, 0x1b})
	f.Add(byte(0), []byte{8, 3, 0x08, 0x50, 0x08, 0x40, 0x40, 0x40}) // weighs 0 on big cores
	f.Add(byte(1), []byte{6, 6, 0x40, 0x40, 0x00, 0x7f, 0x40})       // weighs 0 on both
	f.Add(byte(2), []byte{0, 8, 0x4a, 0x4a, 0x0a, 0x4a, 0x4a, 0x4a, 0x4a})
	f.Add(byte(40), []byte{5, 7, 0x76, 0x76, 0x09, 0x76, 0x76, 0x24, 0x1b, 0x52, 0x49, 0x7f, 0x36, 0x2d, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, bound byte, data []byte) {
		if len(data) < 3 {
			return
		}
		r := core.Res(int(data[0]%9), int(data[1]%9))
		if r.Total() == 0 {
			return
		}
		data = data[2:]
		if len(data) > 64 {
			data = data[:64]
		}
		tasks := make([]core.Task, len(data))
		for i, x := range data {
			tasks[i] = task(fuzzWeights[x&7], fuzzWeights[x>>3&7], x>>6&1 == 1)
		}
		c := core.MustChain(tasks)
		for _, b := range closedBounds(c, r, uint64(bound)) {
			checkDeadCellsClosed(t, c, r, b)
		}
	})
}
