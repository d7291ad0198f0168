package herad

import (
	"math"

	"ampsched/internal/core"
)

// The HeRAD fill. The DP state is (j, r⃗): the first j tasks on the k-vector
// r⃗ of remaining per-type core counts. Row j of the matrix holds one cell
// per point of the box Π_v [0, C_v], flattened by mixed-radix strides with
// the last type varying fastest, so ascending state order is the
// lexicographic scan of r⃗ and taking u cores of type v moves a state down
// by u·stride[v]. The recurrence (Eq. 4), the single-stage seeding
// (Algo 8), the tie-break (Algo 10) and the extraction (Algo 11) are the
// paper's, read for k types:
//
//   - The Algo 10 tie-break "swap big cores for little ones, or use fewer
//     of both" is exactly lexicographic ≤ on the usage vector
//     (acc_0, …, acc_{k-1}) — types earlier in the table are the more
//     precious ones.
//   - The Algo 8 single-stage tie ("solve ties in favor of the little
//     cores") becomes "the highest type index wins ties".
//
// At k=2 both rules coincide case by case with the paper's two-type text
// (reference_test.go holds that text as the oracle). Memory is
// O(n · Π_v(C_v+1)) cells; the state box grows geometrically with k, which
// is acceptable for the small-k platforms this models.

// cell is one entry of the DP solution matrix S (Algo 7 lines 1–7). Its
// usage vector — the accumulated cores of each type — lives in matrix.acc:
// a candidate is compared on its period first, and the usage vector is
// read only on a period tie and copied only on a win, so the common
// rejected candidate never touches it.
type cell struct {
	pbest float64       // minimal maximum period for this subproblem
	prev  int32         // flattened state of the predecessor subproblem
	start int32         // 0-based index of the first task of the last stage
	v     core.CoreType // core type of the last stage
}

// matrix is the flattened (n+1)×states DP matrix: 24 bytes of cell plus
// 4·k bytes of usage vector per state (32 B at k=2, 36 B at k=3).
type matrix struct {
	cells  []cell
	acc    []int32 // k usage counts per cell, parallel to cells
	k      int     // number of core types
	states int     // Π_v (C_v+1), the cells of one row
	res    core.Resources
}

func newMatrix(n int, r core.Resources) *matrix {
	m := &matrix{k: r.NumTypes(), res: r, states: 1}
	for v := 0; v < m.k; v++ {
		m.states *= r.Count(core.CoreType(v)) + 1
	}
	// Row 0 is the empty-prefix base case P*(0, ·) = 0 with no cores used:
	// the zero cell. Every other row is written by fillRows before it is
	// read.
	m.resize(n)
	return m
}

// resize adjusts the matrix to hold rows 0..n. Shrinking truncates, leaving
// every surviving row intact; growing keeps the existing rows and appends
// rows the caller must fillRows before use. Extra capacity is reserved so
// a run of Planner.Appends does not reallocate per edit.
func (m *matrix) resize(n int) {
	want := (n + 1) * m.states
	if want > cap(m.cells) {
		reserve := want
		if len(m.cells) > 0 {
			reserve += want / 2
		}
		m.cells = append(make([]cell, 0, reserve), m.cells...)
		m.acc = append(make([]int32, 0, reserve*m.k), m.acc...)
	}
	m.cells = m.cells[:want]
	m.acc = m.acc[:want*m.k]
}

// usage returns the usage vector of the cell at flattened index idx.
func (m *matrix) usage(idx int) []int32 {
	return m.acc[idx*m.k : (idx+1)*m.k]
}

// attrs is what journal spans and events have in common: chained,
// self-returning attribute setters.
type attrs[T any] interface {
	Int(key string, v int) T
	Str(key, v string) T
}

// where stamps a journal span or event with a DP state — tasks covered and
// cores available: the big and little counts (types 0 and 1) as integers
// and, on platforms with more types, the whole count vector in one string.
func where[T attrs[T]](ev T, tasks int, r core.Resources) T {
	ev = ev.Int("tasks", tasks).Int("big", r.Count(core.Big)).Int("little", r.Count(core.Little))
	if r.NumTypes() > 2 {
		ev = ev.Str("resources", r.String())
	}
	return ev
}

// fill computes every row of a fresh matrix under one "dp_pass" span.
func (m *matrix) fill(c *core.Chain, om Metrics) {
	dp, exit := om.Trace.Enter("dp_pass")
	if om.Trace.Enabled() {
		where(dp, c.Len(), m.res)
	}
	m.fillRows(c, 1, c.Len(), om)
	exit()
}

// typeFill is the per-core-type state of the fill, gathered in one place so
// the hot loops range over a slice of k of them instead of indexing k
// parallel arrays.
type typeFill struct {
	pre    []float64 // the chain's prefix sums on this type (core.Chain.PrefixW)
	end    float64   // pre[j]: an interval [i-1, j-1] weighs end - pre[i-1]
	stride int       // state distance of one core of this type
	total  int32     // cores of this type on the platform
	left   int32     // cores of this type the current state has left
	w      float64   // weight of the current candidate stage on this type
	floor  int       // smallest count not yet ruled out for the current cell (recompute)
}

// rowFill is what the cells of one row share: the per-type state and where
// the row's replicable tail starts.
type rowFill struct {
	j       int
	repFrom int // stage [i-1, j-1] is replicable iff i ≥ repFrom
	// t[:k] is the per-type state — an array, not a slice of one, so that a
	// rowFill and everything it owns lives on its fillRows' stack.
	k int
	t [core.MaxCoreTypes]typeFill
	// What recompute counts, added to the shared Metrics counters once per
	// fillRows rather than once per cell.
	cells, pruned, candidates int64
}

// fillRows computes rows from..to of the matrix in ascending row order.
// Rows < from are read, never written, which is what lets the incremental
// Planner refill only the suffix a chain edit invalidates; every cell of a
// filled row is overwritten, so the rows' previous content is irrelevant.
func (m *matrix) fillRows(c *core.Chain, from, to int, om Metrics) {
	f := rowFill{k: m.k}
	for v, stride := f.k-1, 1; v >= 0; v-- { // mixed radix, last type fastest
		total := m.res.Count(core.CoreType(v))
		f.t[v] = typeFill{pre: c.PrefixW(core.CoreType(v)), stride: stride, total: int32(total)}
		stride *= total + 1
	}
	for j := from; j <= to; j++ {
		f.j = j
		for v := range f.t[:f.k] {
			f.t[v].end = f.t[v].pre[j]
		}
		// IsRep(i-1, j-1) is monotone in i; find where it flips.
		f.repFrom = j + 1
		for lo := 1; lo < f.repFrom; {
			if mid := int(uint(lo+f.repFrom) >> 1); c.IsRep(mid-1, j-1) {
				f.repFrom = mid
			} else {
				lo = mid + 1
			}
		}
		m.fillRow(&f, om)
	}
	om.DPCells.Add(f.cells)
	om.DPPruned.Add(f.pruned)
	om.DPCandidates.Add(f.candidates)
}

// fillRow computes row j in ascending state order — the lexicographic scan
// of the remaining-count vectors. Each state is seeded with its best single
// stage (Algo 8) and, from row 2 on, completed by the Eq. 4 recurrence
// (Algo 9), which reads only earlier rows and same-row states with one core
// less, all of which precede it in the scan. Row 1 is its seeds.
func (m *matrix) fillRow(f *rowFill, om Metrics) {
	base := f.j * m.states
	m.cells[base] = cell{pbest: math.Inf(1)} // no cores, no schedule
	for v := range f.t[:f.k] {
		f.t[v].left = 0
	}
	for s := 1; s < m.states; s++ {
		for v := f.k - 1; ; v-- { // odometer step to the next r⃗
			if f.t[v].left++; f.t[v].left <= f.t[v].total {
				break
			}
			f.t[v].left = 0
		}
		m.seed(f, base+s)
		if f.j >= 2 {
			m.recompute(f, s, om)
		}
	}
}

// seed implements Algo 8 for the cell at idx (row f.j, the state f.t
// stands on): the best single stage holding the row's tasks that spends
// all the cores left of one type, ties going to the highest type index
// (the k-type reading of "solve ties in favor of the little cores").
func (m *matrix) seed(f *rowFill, idx int) {
	rep := f.repFrom == 1
	best, bw := -1, 0.0
	for v := range f.t[:f.k] {
		tv := &f.t[v]
		if tv.left < 1 {
			continue
		}
		if w := stageWeight(tv.end-tv.pre[0], rep, int(tv.left)); best < 0 || w <= bw {
			best, bw = v, w
		}
	}
	m.cells[idx] = cell{pbest: bw, v: core.CoreType(best)}
	use := m.usage(idx)
	clear(use)
	use[best] = 1
	if rep {
		use[best] = f.t[best].left
	}
}

// recompute implements Algo 9 for state s of row f.j: it computes
// P*(j, r⃗) by comparing the single-stage seed, the neighbor cells with one
// less core of each type, and every split point i / core count u for every
// core type (Eq. 4). The reverse i loop is cut once even the widest
// replicated stage of every type exceeds the current best period — stage
// weight only grows as i decreases, so no smaller i can win — and
// sequential intervals only try a single core.
//
// A candidate's period is max(P*(i-1, r⃗-u·e_v), w/u): the stage term only
// shrinks as u grows, the predecessor term only grows, with u and with i.
// Three cuts leave out the part of the (i, v, u) box where one of the two
// is strictly above the incumbent at the moment the candidate would have
// been compared. Such a candidate can neither win nor tie, so the
// survivors meet the same incumbents in the same order — splits
// descending, types ascending, counts ascending — and every cell is the
// one the full walk writes:
//
//   - Count floor. u starts at the smallest count whose stage term
//     w/float64(u) — the quotient the candidate itself is compared on — is
//     within the incumbent. Along a cell's walk w only grows and the
//     incumbent only shrinks, so the floor only rises: it is kept per type
//     (typeFill.floor) and stepped up, never recomputed. It survives the
//     walk turning sequential: a floor above 1 says w alone is above the
//     incumbent, which is all a sequential stage (period w, one core) asks.
//   - Predecessor break. The u loop ends at the first predecessor above the
//     incumbent: P*(i-1, ·) is non-decreasing in u in the table itself,
//     because every cell is min-ed against its one-core-less neighbors
//     before it is read.
//   - Top split. The walk starts at topSplit, not at j.
//
// Candidates are compared as Algo 10 prescribes — period first, then the
// usage vector — but without materializing the candidate cell: its usage
// vector is the predecessor's plus the stage's own cores, read only when
// the periods tie and copied only when the candidate wins. The outcome of
// every comparison is that of CompareCells on the full cells.
func (m *matrix) recompute(f *rowFill, s int, om Metrics) {
	f.cells++
	// Locals, so the loops below do not reload them through m and f after
	// every store.
	j, t, repFrom, states, cells := f.j, f.t[:f.k], f.repFrom, m.states, m.cells
	idx := j*states + s
	cur := cells[idx] // seed
	var ubuf [core.MaxCoreTypes]int32
	use := ubuf[:len(t)] // cur's usage vector
	copyUsage(use, m.usage(idx))
	// Neighbor cells, highest type first ((b, l-1) before (b-1, l)).
	for v := len(t) - 1; v >= 0; v-- {
		if t[v].left == 0 {
			continue
		}
		nb := idx - t[v].stride
		if p := cells[nb].pbest; p < cur.pbest || p == cur.pbest && usageLE(m.usage(nb), -1, 0, use) {
			cur = cells[nb]
			copyUsage(use, m.usage(nb))
		}
	}
	for v := range t {
		t[v].floor = 1 // rises along this cell's walk
	}
	candidates := 0 // accumulated locally to keep the hot loops cheap
	cut := 0        // the split the dominance test stopped at (0: it never fired)
	for i := topSplit(cells, t, states, s, j, cur.pbest); i > 0; i-- {
		// The candidate stage holds tasks [i-1, j-1] (0-based); its
		// predecessor subproblem is row i-1. i == 1 reproduces the
		// single-stage candidates with intermediate core counts.
		rep := i >= repFrom
		dominated := true
		for v := range t {
			tv := &t[v]
			tv.w = tv.end - tv.pre[i-1]
			if stageWeight(tv.w, rep, int(tv.left)) <= cur.pbest {
				dominated = false
			}
		}
		if dominated {
			cut = i
			break
		}
		row := (i-1)*states + s
		for v := range t {
			tv := &t[v]
			w, stride, maxU := tv.w, tv.stride, int(tv.left)
			if !rep && maxU > 1 {
				maxU = 1 // sequential stages cannot benefit from extra cores
			}
			u := tv.floor
			for u <= maxU && w/float64(u) > cur.pbest {
				u++
			}
			tv.floor = u
			for ; u <= maxU; u++ {
				pi := row - u*stride
				pp := cells[pi].pbest
				if pp > cur.pbest {
					break
				}
				candidates++
				p, cores := w, 1
				if rep {
					p, cores = w/float64(u), u
				}
				if pp > p {
					p = pp
				}
				if p < cur.pbest || p == cur.pbest && usageLE(m.usage(pi), v, int32(cores), use) {
					cur = cell{pbest: p, prev: int32(s - u*stride), start: int32(i - 1), v: core.CoreType(v)}
					copyUsage(use, m.usage(pi))
					use[v] += int32(cores)
				}
			}
		}
	}
	if cut > 0 {
		f.pruned++
	}
	f.candidates += int64(candidates)
	if om.Trace.Enabled() {
		at := m.res
		for v := range t {
			at = at.With(core.CoreType(v), int(t[v].left))
		}
		if cut > 0 {
			where(om.Trace.Event("dp_prune"), j, at).Int("cut_at_start", cut-1)
		}
		where(om.Trace.Event("dp_cell"), j, at).
			F64("period", cur.pbest).Int("stage_start", int(cur.start)).
			Str("type", cur.v.String()).Int("candidates", candidates)
	}
	cells[idx] = cur
	copyUsage(m.usage(idx), use)
}

// copyUsage is copy for usage vectors: at most MaxCoreTypes words, for
// which a loop beats the memmove call copy compiles to.
func copyUsage(dst, src []int32) {
	for v := range dst {
		dst[v] = src[v]
	}
}

// usageLE is the tie-break of Algo 10 for k types: it reports whether the
// candidate usage vector — prev, plus cores more of type v (v < 0: prev as
// it is) — is lexicographically ≤ cur, in which case the candidate replaces
// cur at equal periods (identical usage: the later candidate wins). At k=2
// the lexicographic rule is exactly the paper's
// "(accL↑ ∧ accB↓) ∨ (accL≤ ∧ accB≤)" case split.
func usageLE(prev []int32, v int, cores int32, cur []int32) bool {
	for t, a := range prev {
		if t == v {
			a += cores
		}
		if a != cur[t] {
			return a < cur[t]
		}
	}
	return true
}

// stageWeight is core.Chain.Weight (Eq. 1) with the interval sum already
// in hand: w is SumW(s, e, v), rep is IsRep(s, e). Bit-identical to
// Weight — same operations in the same order — so hoisting the prefix-sum
// lookup out of the candidate loops cannot change a single cell.
func stageWeight(w float64, rep bool, r int) float64 {
	if r < 1 {
		return math.Inf(1)
	}
	if rep {
		return w / float64(r)
	}
	return w
}

// topSplit returns the largest split i ≤ j at which some type the state
// still has cores of finds its one-core predecessor P*(i-1, r⃗-e_v) within
// the incumbent period p. Above it every candidate's predecessor —
// P*(i-1, r⃗-u·e_v) ≥ P*(i-1, r⃗-e_v) — is strictly above p, so the fill
// starts its walk there. The predicate is monotone, which is what
// lets a binary search find its edge: P*(i-1, ·) is non-decreasing in i in
// the table itself, because weights are ≥ 0 (core.NewChain), prefix sums
// and floating-point subtraction and division are monotone, and every cell
// is the minimum over all its candidates. Row 0 is the zero cell, so
// split 1 always qualifies. The answer is j unless the seed beats every
// same-row neighbor, which takes a state with cores of one type only:
// above all the k single-core states of a row, whose predecessors past
// row 0 have no core at all and whose walk no stage weight ever cuts.
func topSplit(cells []cell, t []typeFill, states, s, j int, p float64) int {
	within := func(i int) bool {
		for v := range t {
			if t[v].left > 0 && cells[(i-1)*states+s-t[v].stride].pbest <= p {
				return true
			}
		}
		return false
	}
	if within(j) {
		return j
	}
	lo, hi := 1, j-1 // within(lo) holds; the largest within is in [lo, hi]
	for lo < hi {
		if mid := int(uint(lo+hi+1) >> 1); within(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// extract implements Algo 11: it walks the matrix backwards from the full
// problem (row n at the full-capacity state, the last of its row),
// recovering each stage's interval, core type and core count — the latter
// by subtracting the predecessor's accumulated usage.
func (m *matrix) extract(n int) core.Solution {
	e, s := n, m.states-1
	var sol core.Solution
	for e >= 1 {
		idx := e*m.states + s
		cl := m.cells[idx]
		if math.IsInf(cl.pbest, 1) {
			return core.Solution{} // unschedulable (no cores)
		}
		st := int(cl.start)
		prev := st*m.states + int(cl.prev)
		sol = sol.Prepend(core.Stage{
			Start: st, End: e - 1, Type: cl.v,
			Cores: int(m.usage(idx)[cl.v] - m.usage(prev)[cl.v]),
		})
		e, s = st, int(cl.prev)
	}
	return sol
}
