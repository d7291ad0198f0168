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
// core type (Eq. 4), walking the splits downwards from the top split
// (lastSplit). The walk ends once even the widest replicated stage of
// every type exceeds the current best period — stage weight only grows as
// i decreases, so no smaller i can win — and sequential intervals only try
// a single core.
//
// Before the walk, the split g this state chose one row earlier is
// evaluated on its own: the warm incumbent. A chain's next task moves the
// best last stage little, so g's best candidate is usually close to the
// optimum, and every cut below — the top split included, which is
// searched again — is measured against the incumbent. Evaluating g costs
// about one split of the walk and can only spare the splits above it, so
// it is done only when at least two lie between g and the top split.
//
// A candidate's period is max(P*(i-1, r⃗-u·e_v), w/u): the stage term only
// shrinks as u grows, the predecessor term only grows, with u and with i.
// Five cuts leave out candidates that are strictly worse, in Algo 10's
// order, than a candidate already compared:
//
//   - Count floor. u starts at the smallest count whose stage term
//     w/float64(u) — the quotient the candidate itself is compared on — is
//     within the incumbent. Along a cell's walk w only grows and the
//     incumbent only shrinks, so the floor only rises: it is kept per type
//     (typeFill.floor) and stepped up, never recomputed. It survives the
//     walk turning sequential: a floor above 1 says w alone is above the
//     incumbent, which is all a sequential stage (period w, one core) asks.
//     The warm split is not on the walk's path — its w can exceed that of
//     the splits above it — so the floors it raises are reset before the
//     walk.
//   - Predecessor break. The u loop ends at the first predecessor above the
//     incumbent: P*(i-1, ·) is non-decreasing in u in the table itself,
//     because every cell is min-ed against its one-core-less neighbors
//     before it is read (row 1, which is seeds only, is non-increasing in
//     each count too: more cores of one type never slow its best stage).
//   - Crossover. Once a replicable candidate's predecessor term reaches its
//     stage term, pp(u) ≥ w/u, every larger count u' is worse than u: its
//     period is pp(u') ≥ pp(u), and at equal periods its predecessor's
//     usage is lexicographically no smaller (the one-core-less min again),
//     so its own usage, u'-u cores of type v larger, is strictly larger.
//     Row 1 is seeds only, and there two equal-period seeds of type v can
//     give u and u' the same usage, all L cores of v. Then split 1 on
//     those L cores, walked later, has that usage too and a period no
//     larger — its weight over L cores lies between pp and w/u — so
//     neither is the cell's last optimal candidate.
//   - Top split. The walk starts at lastSplit's answer, not at j.
//   - Empty-split jump. At a split where no type compared a candidate,
//     each type v still in the walk met the predecessor break at its floor
//     u: P*(i-1, r⃗-u·e_v) is above the incumbent, so every count ≥ u is
//     strictly worse. No lower split needs a smaller count — w only grows,
//     and the incumbent does not change while no candidate is compared —
//     so v's next candidate lies at a split i' < i with P*(i'-1, r⃗-u·e_v)
//     within the incumbent, the largest of which lastSplit finds by
//     bisection; a type whose floor no longer fits has no candidate left.
//     The walk jumps to the largest such split over the types. The floors
//     it skips stepping up are stepped up at once where it lands, to the
//     same counts, since w there is no smaller than at any skipped split.
//     If the skipped splits reach a dominated one, the walk stops at the
//     highest of them instead — dominance is monotone in i, so that is a
//     bisection too — which keeps the cut, dp.pruned and every dp_prune
//     event those of the step-by-step walk.
//
// A cut drops a candidate only when it is strictly worse than the
// incumbent, which is always a real candidate, or, for the row-1 twins,
// when a later candidate is at least as good. So the cell's last optimal
// candidate in walk order — minimal period, then lexicographically minimal
// usage, ties at identical usage going to the later one; splits
// descending, types ascending, counts ascending — is compared in the walk
// and ends in the cell, whatever the starting incumbent was. If the warm
// candidate is that one, the walk meets it again at its own split and it
// wins there. Each cell is the one the full walk writes.
//
// Candidates are compared as Algo 10 prescribes — period first, then the
// usage vector — but without materializing the candidate cell: its usage
// vector is the predecessor's plus the stage's own cores, read only when
// the periods tie and copied only when the candidate wins. The outcome of
// every comparison is that of CompareCells on the full cells.
func (m *matrix) recompute(f *rowFill, s int, om Metrics) {
	f.cells++
	j, t, states, cells := f.j, f.t[:f.k], m.states, m.cells
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
	candidates := 0
	top := lastSplit(cells, t, states, s, 1, j, true, cur.pbest)
	if g := int(cells[idx-states].start) + 1; g+1 < top { // the warm split
		candidates, _ = m.walk(f, s, g, g, &cur, use)
		for v := range t {
			t[v].floor = 1 // g's w is not the walk's
		}
		top = lastSplit(cells, t, states, s, 1, top, true, cur.pbest)
	}
	n, cut := m.walk(f, s, top, 1, &cur, use)
	candidates += n
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

// walk compares the candidates of splits hi down to lo of state s with the
// incumbent cur, whose usage vector is use, and replaces it with every one
// that wins. The candidates of split i are the stage holding tasks
// [i-1, j-1] (0-based) on u cores of type v, types ascending, counts
// ascending from each type's floor; their predecessor subproblem is row
// i-1, and i == 1 reproduces the single-stage candidates with intermediate
// core counts. A split that holds no candidate is followed by a jump over
// every split below it that cannot hold one either (lastSplit). It
// returns the number of candidates compared and the split at which it
// stopped because the stage was dominated (rowFill.dominated), or 0 if it
// never was.
func (m *matrix) walk(f *rowFill, s, hi, lo int, cur *cell, use []int32) (candidates, cut int) {
	// Locals, so the loops below do not reload them through m, f and cur
	// after every store.
	t, cells, best := f.t[:f.k], m.cells, *cur
	for i := hi; i >= lo; i-- {
		if f.dominated(i, best.pbest) {
			cut = i
			break
		}
		rep := i >= f.repFrom
		row := (i-1)*m.states + s
		compared := candidates
		for v := range t {
			tv := &t[v]
			w, stride, maxU := tv.end-tv.pre[i-1], tv.stride, int(tv.left)
			if !rep && maxU > 1 {
				maxU = 1 // sequential stages cannot benefit from extra cores
			}
			u := tv.floor
			for u <= maxU && w/float64(u) > best.pbest {
				u++
			}
			tv.floor = u
			for ; u <= maxU; u++ {
				pi := row - u*stride
				pp := cells[pi].pbest
				if pp > best.pbest {
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
				if p < best.pbest || p == best.pbest && usageLE(m.usage(pi), v, int32(cores), use) {
					best = cell{pbest: p, prev: int32(s - u*stride), start: int32(i - 1), v: core.CoreType(v)}
					copyUsage(use, m.usage(pi))
					use[v] += int32(cores)
				}
				if rep && pp >= w/float64(u) {
					break // crossover: every larger count is worse than u
				}
			}
		}
		if candidates > compared || i == lo {
			continue
		}
		// Empty-split jump: no split between next and i holds a candidate,
		// so the incumbent stays as it is down to next, and the dominance
		// cut the step-by-step walk would meet on the way is the highest
		// dominated split of the skipped range.
		next := lastSplit(cells, t, m.states, s, lo, i-1, rep, best.pbest)
		if next < i-1 && f.dominated(next+1, best.pbest) {
			cut = next + 1 // the highest dominated split is in [cut, i-1]
			for top := i - 1; cut < top; {
				if mid := int(uint(cut+top+1) >> 1); f.dominated(mid, best.pbest) {
					cut = mid
				} else {
					top = mid - 1
				}
			}
			break
		}
		i = next + 1
	}
	*cur = best
	return candidates, cut
}

// dominated reports whether split i holds no stage within p for the
// current state: even the widest replicated stage of every type weighs
// more. Stage weight only grows as i falls — the interval grows, and a
// sequential stage weighs its whole w on one core — so a dominated split
// is followed by dominated ones only, and the walk stops at the first.
func (f *rowFill) dominated(i int, p float64) bool {
	rep := i >= f.repFrom
	for v := range f.t[:f.k] {
		tv := &f.t[v]
		if stageWeight(tv.end-tv.pre[i-1], rep, int(tv.left)) <= p {
			return false
		}
	}
	return true
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

// lastSplit returns the largest split i in [lo, hi] at which some type v
// still in the walk finds its floor's predecessor P*(i-1, r⃗-floor_v·e_v)
// within the incumbent period p, or lo-1 if there is none. A type is still
// in the walk while its floor fits the stage: floor ≤ left cores, and
// floor = 1 if rep is false (sequential stages take one core). Below a
// split where the predicate fails every candidate of v has a predecessor
// P*(i-1, r⃗-u·e_v) ≥ P*(i-1, r⃗-floor_v·e_v) strictly above p, and a type
// whose floor no longer fits has no candidate left in the walk at all.
//
// The predicate is monotone, which is what lets a binary search find its
// edge: P*(i-1, ·) is non-decreasing in i in the table itself, because
// weights are ≥ 0 (core.NewChain), prefix sums and floating-point
// subtraction and division are monotone, and every cell is the minimum
// over all its candidates. Row 0 is the zero cell, so split 1 qualifies
// whenever some type does.
//
// recompute calls it with every floor at 1 to find the top split, where
// the walk starts: a lower p gives an answer no larger, so after the warm
// split it searches again with the first answer as hi, and the walk starts
// near the split where the optimum's predecessor and stage terms cross.
// walk calls it after a split that held no candidate, with the floors that
// split left, to find the next split that can hold one.
func lastSplit(cells []cell, t []typeFill, states, s, lo, hi int, rep bool, p float64) int {
	within := func(i int) bool {
		for v := range t {
			tv := &t[v]
			if u := tv.floor; u <= int(tv.left) && (rep || u == 1) && cells[(i-1)*states+s-u*tv.stride].pbest <= p {
				return true
			}
		}
		return false
	}
	if within(hi) {
		return hi
	}
	lo-- // within(lo) is taken to hold; the answer is in [lo, hi-1]
	for hi--; lo < hi; {
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
// by subtracting the predecessor's accumulated usage. A first walk counts
// the stages, so the second fills them into one slice from the back.
func (m *matrix) extract(n int) core.Solution {
	count := 0
	for e, s := n, m.states-1; e >= 1; count++ {
		cl := m.cells[e*m.states+s]
		if math.IsInf(cl.pbest, 1) {
			return core.Solution{} // unschedulable (no cores)
		}
		e, s = int(cl.start), int(cl.prev)
	}
	stages := make([]core.Stage, count)
	for e, s := n, m.states-1; e >= 1; {
		idx := e*m.states + s
		cl := m.cells[idx]
		st := int(cl.start)
		prev := st*m.states + int(cl.prev)
		count--
		stages[count] = core.Stage{
			Start: st, End: e - 1, Type: cl.v,
			Cores: int(m.usage(idx)[cl.v] - m.usage(prev)[cl.v]),
		}
		e, s = st, int(cl.prev)
	}
	return core.Solution{Stages: stages}
}
