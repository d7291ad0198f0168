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
// dp.pruned or a dp_prune event. The oracle keeps the bound's cap — a
// cell whose seed and neighbors are all above it starts from the same
// sentinel incumbent and is stored as +Inf when nothing beats it — but
// neither its skip nor the suffix bound: it evaluates every cell. The
// fill's live cells must be its cells although the fill reads 0 where the
// cold walk reads a dead cell's true period.

// eachCell fills the rows of a fresh matrix for c on r under bound and the
// suffix bound live (nil: none) the way fillRows does — rows ascending,
// states ascending, repFrom found step by step rather than by bisection —
// seeding every live cell and handing every live state of rows 2 and up to
// recompute in that order; a dead cell stays the zero cell. It returns the
// matrix and the split recompute returns for every state of rows 2 and up
// in fill order (rows ascending from 2, states ascending from 1), 0 for a
// dead one.
func eachCell(c *core.Chain, r core.Resources, bound float64, live []float64, recompute func(m *matrix, f *rowFill, s int) int) (*matrix, []int) {
	m := newMatrix(c.Len(), r)
	f := rowFill{k: m.k, bound: bound, live: live}
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
			cut := 0
			if !f.dead(j, s) {
				m.seed(&f, base+s)
				if j >= 2 {
					cut = recompute(m, &f, s)
				}
			}
			if j >= 2 {
				cuts = append(cuts, cut)
			}
		}
	}
	return m, cuts
}

// walkFill fills a fresh matrix for c on r under bound with the cold walk,
// which evaluates every cell: it has no suffix bound. It returns the
// dominance split of every recomputed cell in fill order, 0 where the walk
// ran out or the cell is over the bound.
func walkFill(c *core.Chain, r core.Resources, bound float64) (*matrix, []int) {
	return eachCell(c, r, bound, nil, (*matrix).walkRecompute)
}

// fillCuts is walkFill with the product recompute and the suffix bound
// live: the fill's own matrix and the split each cell's recompute returns.
func fillCuts(c *core.Chain, r core.Resources, bound float64, live []float64) (*matrix, []int) {
	return eachCell(c, r, bound, live, func(m *matrix, f *rowFill, s int) int {
		return m.recompute(f, s, Metrics{})
	})
}

// walkRecompute is recompute with a cold incumbent, no top split, no
// crossover cut, no jump and no skip. It returns the split at which the
// walk stopped because even the widest stage of every type was above the
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
	capped := cur.pbest > f.bound
	if capped { // every candidate within the bound beats the sentinel
		cur = cell{pbest: f.bound}
		for v := range use {
			use[v] = math.MaxInt32
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
					capped = false
				}
			}
		}
	}
	if capped {
		cells[idx] = cell{pbest: math.Inf(1)}
		return 0
	}
	cells[idx] = cur
	copy(m.usage(idx), use)
	return cut
}

// journalCuts returns the dominance split of every dp_cell event of j in
// journal order as its dp_prune event states it (the event's
// cut_at_start + 1; 0 for a cell with no dp_prune before its dp_cell).
func journalCuts(t *testing.T, j *trace.Journal) []int {
	t.Helper()
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
	return cuts
}

// drawBound fills c on r without a bound and returns that matrix and the
// bound pick chooses: +Inf, or the period of one of its finite cells, or
// the float64 just below or just above it. A cell's period can lie below
// the optimum, above it or on it.
func drawBound(c *core.Chain, r core.Resources, pick uint64) (*matrix, float64) {
	m := newMatrix(c.Len(), r)
	m.fill(c, math.Inf(1), Metrics{})
	var periods []float64
	for _, cl := range m.cells[m.states:] { // row 0 is the zero cell
		if !math.IsInf(cl.pbest, 1) {
			periods = append(periods, cl.pbest)
		}
	}
	if len(periods) == 0 || pick%4 == 3 {
		return m, math.Inf(1)
	}
	p := periods[pick/4%uint64(len(periods))]
	switch pick % 4 {
	case 1:
		p = math.Nextafter(p, math.Inf(-1))
	case 2:
		p = math.Nextafter(p, math.Inf(1))
	}
	return m, p
}

// sameCell reports whether cells a and b of matrices ma and mb agree in
// period bits, predecessor, stage start, type and usage vector.
func sameCell(ma, mb *matrix, idx int) bool {
	a, b := ma.cells[idx], mb.cells[idx]
	return math.Float64bits(a.pbest) == math.Float64bits(b.pbest) && a.prev == b.prev && a.start == b.start && a.v == b.v &&
		slices.Equal(ma.usage(idx), mb.usage(idx))
}

// isZeroCell reports whether the cell at idx is the zero cell of row 0:
// period +0, no predecessor, start or type, and an all-zero usage vector.
func isZeroCell(m *matrix, idx int) bool {
	return math.Float64bits(m.cells[idx].pbest) == 0 && m.cells[idx] == cell{} &&
		!slices.ContainsFunc(m.usage(idx), func(a int32) bool { return a != 0 })
}

// checkFillMatchesWalk fails the test unless the fill of c on r under the
// bound pick draws (drawBound) agrees with the cold walk under that bound:
// the dead cells of the suffix bound (suffixLive) are exactly the zero
// cell, and every other cell of rows 0 and 1 and every other cell the cold
// walk keeps within the bound is the same — period bits, predecessor, stage
// start and type, usage vector — as the cold walk's and the unbounded
// fill's, and cut at the same dominated split as the cold walk's, and every
// other cell is over the bound. fill itself must write the matrix of that
// check, and count in dp.pruned the live cells whose walk it cut. With
// journal set, the dp_prune events must state the same cuts, one dp_cell
// per live cell within the bound.
func checkFillMatchesWalk(t *testing.T, c *core.Chain, r core.Resources, pick uint64, journal bool) {
	t.Helper()
	free, b := drawBound(c, r, pick)
	live := suffixLive(c, r, b, new([]float64))
	f := rowFill{live: live}
	got, gotCuts := fillCuts(c, r, b, live)
	want, wantCuts := walkFill(c, r, b)
	for idx := range want.cells {
		row, state := idx/want.states, idx%want.states
		switch {
		case row > 0 && state > 0 && f.dead(row, state):
			if !isZeroCell(got, idx) {
				t.Fatalf("R=%v n=%d bound=%v: dead cell (row %d, state %d) is %+v usage %v, not the zero cell\nchain=%+v",
					r, c.Len(), b, row, state, got.cells[idx], got.usage(idx), c.Tasks())
			}
		case row < 2 || want.cells[idx].pbest <= b:
			for _, o := range []struct {
				name string
				m    *matrix
			}{{"the cold walk", want}, {"the unbounded fill", free}} {
				if !sameCell(got, o.m, idx) {
					t.Fatalf("R=%v n=%d bound=%v: cell (row %d, state %d) is %+v usage %v, %s writes %+v usage %v\nchain=%+v",
						r, c.Len(), b, row, state, got.cells[idx], got.usage(idx), o.name, o.m.cells[idx], o.m.usage(idx), c.Tasks())
				}
			}
		case got.cells[idx].pbest <= b:
			t.Fatalf("R=%v n=%d bound=%v: cell (row %d, state %d) is %v, the cold walk finds nothing within the bound\nchain=%+v",
				r, c.Len(), b, row, state, got.cells[idx].pbest, c.Tasks())
		}
	}
	var within []int // the cuts of the live cells within the bound, in fill order
	pruned := int64(0)
	for i, w := range wantCuts {
		row, state := 2+i/(want.states-1), 1+i%(want.states-1)
		if f.dead(row, state) {
			continue
		}
		if gotCuts[i] != w {
			t.Fatalf("R=%v n=%d bound=%v: cell (row %d, state %d) is cut at split %d, the cold walk cuts at %d\nchain=%+v",
				r, c.Len(), b, row, state, gotCuts[i], w, c.Tasks())
		}
		if w > 0 {
			pruned++
		}
		if got.cells[row*want.states+state].pbest <= b {
			within = append(within, w)
		}
	}
	om := MetricsFrom(obs.NewRegistry())
	var j *trace.Journal
	if journal {
		j = trace.New()
		om.Trace = trace.NewScope(j.Root())
	}
	filled := newMatrix(c.Len(), r)
	filled.fill(c, b, om)
	for idx := range filled.cells {
		if !sameCell(filled, got, idx) {
			t.Fatalf("R=%v n=%d bound=%v: fill writes cell (row %d, state %d) as %+v, recompute cell by cell as %+v",
				r, c.Len(), b, idx/got.states, idx%got.states, filled.cells[idx], got.cells[idx])
		}
	}
	if v := om.DPPruned.Value(); v != pruned {
		t.Fatalf("R=%v n=%d bound=%v: dp.pruned is %d, the cold walk prunes %d live cells", r, c.Len(), b, v, pruned)
	}
	if journal {
		if cuts := journalCuts(t, j); !slices.Equal(cuts, within) {
			t.Fatalf("R=%v n=%d bound=%v: the dp_prune events state cuts %v, the live cells within the bound are cut at %v",
				r, c.Len(), b, cuts, within)
		}
	}
}

// TestFillMatchesWalk holds whole matrices and every cell's cut to the
// cold walk under a bound drawn from each chain's own matrix: synthetic
// two-type chains from 2 to 40 tasks on platforms up to (30,30), and up to
// 1024 tasks on (4,4); three-type chains up to (8,8,8), and 128 tasks on
// (3,3,3); and every cut family at k = 2 and 3, zero weights and zero core
// counts included. The chains of up to 5 tasks check the journal too.
func TestFillMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	srs := []float64{0.2, 0.5, 0.8, 1}
	t.Run("k2", func(t *testing.T) {
		for _, n := range []int{2, 5, 10, 20, 40} {
			for iter := 0; iter < 200; iter++ {
				c := chaingen.Generate(chaingen.Default(n, srs[iter%len(srs)]), rng)
				hi := []int{4, 10, 30}[iter%3]
				checkFillMatchesWalk(t, c, core.Res(1+rng.Intn(hi), 1+rng.Intn(hi)), rng.Uint64(), n <= 5)
			}
		}
	})
	t.Run("k2-long", func(t *testing.T) {
		if testing.Short() {
			t.Skip("n = 512 and 1024 fills under -short")
		}
		for iter := 0; iter < 4; iter++ {
			c := chaingen.Generate(chaingen.Default(512, srs[iter%len(srs)]), rng)
			checkFillMatchesWalk(t, c, core.Res(4, 4), rng.Uint64(), false)
		}
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default(160, 0.8), rng), core.Res(20, 20), rng.Uint64(), false)
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default(1024, 0.5), rng), core.Res(4, 4), rng.Uint64(), false)
		checkFillMatchesWalk(t, chaingen.Generate(chaingen.Default3(128, 0.5), rng), core.Res(3, 3, 3), rng.Uint64(), false)
	})
	t.Run("k3", func(t *testing.T) {
		for iter := 0; iter < 320; iter++ {
			c := chaingen.Generate(chaingen.Default3(1+rng.Intn(20), srs[iter%len(srs)]), rng)
			checkFillMatchesWalk(t, c, core.Res(rng.Intn(9), rng.Intn(9), rng.Intn(9)), rng.Uint64(), false)
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
				checkFillMatchesWalk(t, fam.draw(rng, k), r, rng.Uint64(), false)
			}
		})
	}
}

// FuzzFillMatchesWalk is TestFillMatchesWalk on chains the fuzzer writes:
// the bound byte picks the bound (drawBound), byte 0 and 1 of data are the
// core counts (≤ 8 each), every further byte is one task (≤ 64, so that
// walks are long enough to jump) — three bits of big weight, three of
// little weight, one of replicability, weights from
// FuzzFillMatchesReference's alphabet.
func FuzzFillMatchesWalk(f *testing.F) {
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
		data = data[2:]
		if len(data) > 64 {
			data = data[:64]
		}
		tasks := make([]core.Task, len(data))
		for i, x := range data {
			tasks[i] = task(fuzzWeights[x&7], fuzzWeights[x>>3&7], x>>6&1 == 1)
		}
		checkFillMatchesWalk(t, core.MustChain(tasks), r, uint64(bound), true)
	})
}
