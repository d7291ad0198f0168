package herad

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// The fill as it was before the warm incumbent, the crossover cut, the top
// split and the empty-split jump: every cell starts its walk at split j
// from the seed and its neighbors alone, steps one split at a time, and
// the count loop runs until the predecessor break. It is the oracle
// TestFillMatchesWalk holds the fill to, cell for cell and cut for cut:
// each of those changes claims to drop only candidates that cannot be the
// cell's last optimal one, and to stop the walk at the dominated split the
// step-by-step walk stops at, so none may move a single bit of the matrix,
// dp.pruned or a dp_prune event.

// walkFill fills a fresh matrix for c on r with the cold walk. It returns
// the dominance split of every recomputed cell in fill order (rows
// ascending from 2, states ascending from 1), 0 where the walk ran out.
func walkFill(c *core.Chain, r core.Resources) (*matrix, []int) {
	m := newMatrix(c.Len(), r)
	f := rowFill{k: m.k}
	for v, stride := f.k-1, 1; v >= 0; v-- {
		total := r.Count(core.CoreType(v))
		f.t[v] = typeFill{pre: c.PrefixW(core.CoreType(v)), stride: stride, total: int32(total)}
		stride *= total + 1
	}
	var cuts []int
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
				cuts = append(cuts, m.walkRecompute(&f, s))
			}
		}
	}
	return m, cuts
}

// walkRecompute is recompute with a cold incumbent, no top split, no
// crossover cut and no jump. It returns the split at which the walk
// stopped because even the widest stage of every type was above the
// incumbent, or 0.
func (m *matrix) walkRecompute(f *rowFill, s int) (cut int) {
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
	var w [core.MaxCoreTypes]float64 // the stage's weight on each type
	for i := j; i > 0; i-- {
		rep := i >= f.repFrom
		dominated := true
		for v := range t {
			w[v] = t[v].end - t[v].pre[i-1]
			if stageWeight(w[v], rep, int(t[v].left)) <= cur.pbest {
				dominated = false
			}
		}
		if dominated {
			cut = i
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
			for u <= maxU && w[v]/float64(u) > cur.pbest {
				u++
			}
			tv.floor = u
			for ; u <= maxU; u++ {
				pi := row - u*tv.stride
				pp := cells[pi].pbest
				if pp > cur.pbest {
					break
				}
				p, cores := w[v], 1
				if rep {
					p, cores = w[v]/float64(u), u
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
	return cut
}

// fillCuts fills a fresh matrix for c on r with the product fill and
// returns it, its dp.pruned count, and the dominance split of every
// recomputed cell in fill order as its dp_prune events state it (the
// event's cut_at_start + 1; 0 for a cell with no dp_prune before its
// dp_cell).
func fillCuts(t *testing.T, c *core.Chain, r core.Resources) (*matrix, int64, []int) {
	t.Helper()
	j := trace.New()
	om := MetricsFrom(obs.NewRegistry())
	om.Trace = trace.NewScope(j.Root())
	m := newMatrix(c.Len(), r)
	m.fill(c, om)
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var cuts []int
	cut := 0
	for rest := buf.Bytes(); len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		switch {
		case bytes.Contains(line, []byte(`"name":"dp_prune"`)):
			_, at, _ := bytes.Cut(line, []byte(`"cut_at_start":`))
			n, err := strconv.Atoi(string(bytes.TrimRight(at, "}")))
			if err != nil {
				t.Fatalf("dp_prune without its cut: %s", line)
			}
			cut = n + 1
		case bytes.Contains(line, []byte(`"name":"dp_cell"`)):
			cuts = append(cuts, cut)
			cut = 0
		}
	}
	return m, om.DPPruned.Value(), cuts
}

// checkFillMatchesWalk fails the test unless the fill and the cold walk
// write the same matrix for c on r — every cell's period bits,
// predecessor, stage start and type, and every usage vector — and stop
// the walk of every cell at the same dominated split, so that dp.pruned
// and the dp_prune events are the cold walk's too.
func checkFillMatchesWalk(t *testing.T, c *core.Chain, r core.Resources) {
	t.Helper()
	got, pruned, gotCuts := fillCuts(t, c, r)
	want, wantCuts := walkFill(c, r)
	for idx := range want.cells {
		g, w := got.cells[idx], want.cells[idx]
		if math.Float64bits(g.pbest) != math.Float64bits(w.pbest) || g.prev != w.prev || g.start != w.start || g.v != w.v ||
			!slices.Equal(got.usage(idx), want.usage(idx)) {
			t.Fatalf("R=%v n=%d: cell (row %d, state %d) is %+v usage %v, the cold walk writes %+v usage %v\nchain=%+v",
				r, c.Len(), idx/want.states, idx%want.states, g, got.usage(idx), w, want.usage(idx), c.Tasks())
		}
	}
	if len(gotCuts) != len(wantCuts) {
		t.Fatalf("R=%v n=%d: the journal has %d dp_cell events, the cold walk recomputes %d cells", r, c.Len(), len(gotCuts), len(wantCuts))
	}
	wantPruned := int64(0)
	for i, w := range wantCuts {
		if gotCuts[i] != w {
			row, state := 2+i/(want.states-1), 1+i%(want.states-1)
			t.Fatalf("R=%v n=%d: cell (row %d, state %d) is cut at split %d, the cold walk cuts at %d\nchain=%+v",
				r, c.Len(), row, state, gotCuts[i], w, c.Tasks())
		}
		if w > 0 {
			wantPruned++
		}
	}
	if pruned != wantPruned {
		t.Fatalf("R=%v n=%d: dp.pruned is %d, the cold walk prunes %d cells", r, c.Len(), pruned, wantPruned)
	}
}

// TestFillMatchesWalk holds whole matrices and every cell's cut to the
// cold walk: synthetic two-type chains from 2 to 40 tasks on platforms up
// to (30,30), and up to 1024 tasks on (4,4); three-type chains up to
// (8,8,8), and 128 tasks on (3,3,3); and every cut family at k = 2 and 3,
// zero weights and zero core counts included.
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
			t.Skip("n = 512 and 1024 fills under -short")
		}
		for iter := 0; iter < 4; iter++ {
			c := chaingen.Generate(chaingen.Default(512, srs[iter%len(srs)]), rng)
			checkFillMatchesWalk(t, c, core.Res(4, 4))
		}
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default(160, 0.8), rng), core.Res(20, 20))
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default(1024, 0.5), rng), core.Res(4, 4))
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default3(128, 0.5), rng), core.Res(3, 3, 3))
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
// task (≤ 64, so that walks are long enough to jump) — three bits of big weight, three of little weight, one of
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
		if len(data) > 64 {
			data = data[:64]
		}
		tasks := make([]core.Task, len(data))
		for i, x := range data {
			tasks[i] = task(fuzzWeights[x&7], fuzzWeights[x>>3&7], x>>6&1 == 1)
		}
		checkFillMatchesWalk(t, core.MustChain(tasks), r)
	})
}
