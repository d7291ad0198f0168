package herad

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// The fill as it was before the warm incumbent and the crossover cut: every
// cell starts its walk from the seed and its neighbors alone, and the count
// loop runs until the predecessor break. It is the oracle
// TestFillMatchesWalk holds the fill to, cell for cell: both changes claim
// to drop only candidates that cannot be the cell's last optimal one, so
// neither may move a single bit of the matrix.

// walkFill fills a fresh matrix for c on r with the cold walk.
func walkFill(c *core.Chain, r core.Resources) *matrix {
	m := newMatrix(c.Len(), r)
	f := rowFill{k: m.k}
	for v, stride := f.k-1, 1; v >= 0; v-- {
		total := r.Count(core.CoreType(v))
		f.t[v] = typeFill{pre: c.PrefixW(core.CoreType(v)), stride: stride, total: int32(total)}
		stride *= total + 1
	}
	for j := 1; j <= c.Len(); j++ {
		f.j = j
		for v := range f.t[:f.k] {
			f.t[v].end = f.t[v].pre[j]
			f.t[v].left = 0
		}
		f.repFrom = j + 1
		for f.repFrom > 1 && c.IsRep(f.repFrom-2, j-1) {
			f.repFrom--
		}
		base := j * m.states
		m.cells[base] = cell{pbest: math.Inf(1)}
		for s := 1; s < m.states; s++ {
			for v := f.k - 1; ; v-- {
				if f.t[v].left++; f.t[v].left <= f.t[v].total {
					break
				}
				f.t[v].left = 0
			}
			m.seed(&f, base+s)
			if j >= 2 {
				m.walkRecompute(&f, s)
			}
		}
	}
	return m
}

// walkRecompute is recompute with a cold incumbent and no crossover cut.
func (m *matrix) walkRecompute(f *rowFill, s int) {
	j, t, cells := f.j, f.t[:f.k], m.cells
	idx := j*m.states + s
	cur := cells[idx]
	use := make([]int32, len(t))
	copy(use, m.usage(idx))
	for v := len(t) - 1; v >= 0; v-- {
		if t[v].left == 0 {
			continue
		}
		nb := idx - t[v].stride
		if p := cells[nb].pbest; p < cur.pbest || p == cur.pbest && usageLE(m.usage(nb), -1, 0, use) {
			cur = cells[nb]
			copy(use, m.usage(nb))
		}
	}
	for v := range t {
		t[v].floor = 1
	}
	for i := topSplit(cells, t, m.states, s, j, cur.pbest); i > 0; i-- {
		rep := i >= f.repFrom
		dominated := true
		for v := range t {
			tv := &t[v]
			tv.w = tv.end - tv.pre[i-1]
			if stageWeight(tv.w, rep, int(tv.left)) <= cur.pbest {
				dominated = false
			}
		}
		if dominated {
			break
		}
		row := (i-1)*m.states + s
		for v := range t {
			tv := &t[v]
			maxU := int(tv.left)
			if !rep {
				maxU = min(maxU, 1)
			}
			u := tv.floor
			for u <= maxU && tv.w/float64(u) > cur.pbest {
				u++
			}
			tv.floor = u
			for ; u <= maxU; u++ {
				pi := row - u*tv.stride
				pp := cells[pi].pbest
				if pp > cur.pbest {
					break
				}
				p, cores := tv.w, 1
				if rep {
					p, cores = tv.w/float64(u), u
				}
				p = max(p, pp)
				if p < cur.pbest || p == cur.pbest && usageLE(m.usage(pi), v, int32(cores), use) {
					cur = cell{pbest: p, prev: int32(s - u*tv.stride), start: int32(i - 1), v: core.CoreType(v)}
					copy(use, m.usage(pi))
					use[v] += int32(cores)
				}
			}
		}
	}
	cells[idx] = cur
	copy(m.usage(idx), use)
}

// checkFillMatchesWalk fails the test unless the fill and the cold walk
// write the same matrix for c on r: every cell's period bits, predecessor,
// stage start and type, and every usage vector.
func checkFillMatchesWalk(t *testing.T, c *core.Chain, r core.Resources) {
	t.Helper()
	got := newMatrix(c.Len(), r)
	got.fill(c, Metrics{})
	want := walkFill(c, r)
	for idx := range want.cells {
		g, w := got.cells[idx], want.cells[idx]
		if math.Float64bits(g.pbest) != math.Float64bits(w.pbest) || g.prev != w.prev || g.start != w.start || g.v != w.v ||
			!slices.Equal(got.usage(idx), want.usage(idx)) {
			t.Fatalf("R=%v n=%d: cell (row %d, state %d) is %+v usage %v, the cold walk writes %+v usage %v\nchain=%+v",
				r, c.Len(), idx/want.states, idx%want.states, g, got.usage(idx), w, want.usage(idx), c.Tasks())
		}
	}
}

// TestFillMatchesWalk holds whole matrices to the cold walk: synthetic
// two-type chains from 2 to 40 tasks on platforms up to (30,30), and up to
// 512 tasks on (4,4); three-type chains up to (8,8,8); and every cut family
// at k = 2 and 3, zero weights and zero core counts included.
func TestFillMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	srs := []float64{0.2, 0.5, 0.8, 1}
	t.Run("k2", func(t *testing.T) {
		for _, n := range []int{2, 5, 10, 20, 40} {
			for iter := 0; iter < 200; iter++ {
				c := chaingen.Generate(chaingen.Default(n, srs[iter%len(srs)]), rng)
				hi := []int{4, 10, 30}[iter%3]
				checkFillMatchesWalk(t, c, core.Res(1+rng.Intn(hi), 1+rng.Intn(hi)))
			}
		}
	})
	t.Run("k2-long", func(t *testing.T) {
		if testing.Short() {
			t.Skip("n = 512 fills under -short")
		}
		for iter := 0; iter < 4; iter++ {
			c := chaingen.Generate(chaingen.Default(512, srs[iter%len(srs)]), rng)
			checkFillMatchesWalk(t, c, core.Res(4, 4))
		}
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default(160, 0.8), rng), core.Res(20, 20))
	})
	t.Run("k3", func(t *testing.T) {
		for iter := 0; iter < 320; iter++ {
			c := chaingen.Generate(chaingen.Default3(1+rng.Intn(20), srs[iter%len(srs)]), rng)
			checkFillMatchesWalk(t, c, core.Res(rng.Intn(9), rng.Intn(9), rng.Intn(9)))
		}
	})
	for _, fam := range cutFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			for iter := 0; iter < 300; iter++ {
				k := 2 + iter%2
				r := core.Res(rng.Intn(7), rng.Intn(7))
				if k == 3 {
					r = core.Res(rng.Intn(4), rng.Intn(4), rng.Intn(4))
				}
				if fam.zeroCount {
					r = r.With(core.CoreType(iter%k), 0)
				}
				checkFillMatchesWalk(t, fam.draw(rng, k), r)
			}
		})
	}
}

// FuzzFillMatchesWalk is TestFillMatchesWalk on chains the fuzzer writes:
// byte 0 and 1 are the core counts (≤ 8 each), every further byte is one
// task (≤ 24) — three bits of big weight, three of little weight, one of
// replicability, weights from FuzzFillMatchesReference's alphabet.
func FuzzFillMatchesWalk(f *testing.F) {
	f.Add([]byte{2, 2, 0x49, 0x52, 0x1b})
	f.Add([]byte{8, 3, 0x08, 0x50, 0x08, 0x40, 0x40, 0x40}) // weighs 0 on big cores
	f.Add([]byte{6, 6, 0x40, 0x40, 0x00, 0x7f, 0x40})       // weighs 0 on both
	f.Add([]byte{0, 8, 0x4a, 0x4a, 0x0a, 0x4a, 0x4a, 0x4a, 0x4a})
	f.Add([]byte{5, 7, 0x76, 0x76, 0x09, 0x76, 0x76, 0x24, 0x1b, 0x52, 0x49, 0x7f, 0x36, 0x2d, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r := core.Res(int(data[0]%9), int(data[1]%9))
		data = data[2:]
		if len(data) > 24 {
			data = data[:24]
		}
		tasks := make([]core.Task, len(data))
		for i, x := range data {
			tasks[i] = task(fuzzWeights[x&7], fuzzWeights[x>>3&7], x>>6&1 == 1)
		}
		checkFillMatchesWalk(t, core.MustChain(tasks), r)
	})
}
