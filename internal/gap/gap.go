// Package gap solves the (min-cost) Generalized Assignment Problem: assign
// each of N items, item j with size s_j, to one of M bins with capacities
// c_i, minimizing Σ cost[i][j], subject to every bin's total assigned size
// staying within its capacity.
//
// This is the subproblem the generalized Burkard heuristic solves in STEP 4
// and STEP 6 of the paper's §4.3 (where the solution space S is the set of
// capacity-feasible assignments rather than permutations). The constructor
// is the Martello–Toth MTHG regret heuristic (ref [12] of the paper),
// followed by shift and swap local refinement; an exact branch-and-bound
// solver is provided for cross-checking on small instances.
//
// The solver core is generic over the cost element type and runs on an
// item-major flat cost layout (all bins of one item contiguous, the access
// pattern of every inner loop here). Callers on the hot path hand costs in
// directly via FlatCosts (int64, the all-integral QBP subproblems) or
// FlatCosts64 (float64); the classic bin-major Costs matrix remains
// supported and is transposed into a scratch buffer per call. For costs
// whose values are integers exactly representable in float64, the int64 and
// float64 paths make identical decisions.
package gap

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/interrupt"
	"repro/internal/qmatrix"
)

// Instance is a minimization GAP. Exactly one cost representation must be
// set: Costs, FlatCosts or FlatCosts64.
type Instance struct {
	Costs [][]float64 // M×N: Costs[i][j] = cost of placing item j in bin i
	// FlatCosts is an optional item-major flat integer cost matrix:
	// FlatCosts[qmatrix.Pack(i, j, M)] (= i + j·M) is the cost of placing
	// item j in bin i. When set it takes precedence over the other
	// representations and the solve runs entirely in int64 — no float64
	// round-trip.
	FlatCosts []int64
	// FlatCosts64 is the float64 analogue of FlatCosts, for subproblems
	// with fractional costs (the heuristic's STEP 6 direction vector).
	// Used when FlatCosts is nil; takes precedence over Costs.
	FlatCosts64 []float64
	Sizes       []int64 // N item sizes, > 0
	Capacities  []int64 // M bin capacities, ≥ 0
}

// M returns the number of bins.
func (in *Instance) M() int { return len(in.Capacities) }

// N returns the number of items.
func (in *Instance) N() int { return len(in.Sizes) }

// Validate checks matrix shapes and sign invariants.
func (in *Instance) Validate() error {
	m, n := in.M(), in.N()
	if m == 0 {
		return errors.New("gap: no bins")
	}
	switch {
	case in.FlatCosts != nil:
		if len(in.FlatCosts) != m*n {
			return errors.New("gap: flat cost matrix length != M·N")
		}
	case in.FlatCosts64 != nil:
		if len(in.FlatCosts64) != m*n {
			return errors.New("gap: flat cost matrix length != M·N")
		}
		for _, c := range in.FlatCosts64 {
			if math.IsNaN(c) {
				return errors.New("gap: NaN cost")
			}
		}
	default:
		if len(in.Costs) != m {
			return errors.New("gap: cost matrix row count != M")
		}
		for _, row := range in.Costs {
			if len(row) != n {
				return errors.New("gap: cost matrix column count != N")
			}
			for _, c := range row {
				if math.IsNaN(c) {
					return errors.New("gap: NaN cost")
				}
			}
		}
	}
	for _, s := range in.Sizes {
		if s <= 0 {
			return errors.New("gap: non-positive item size")
		}
	}
	for _, c := range in.Capacities {
		if c < 0 {
			return errors.New("gap: negative capacity")
		}
	}
	return nil
}

// Cost returns the total cost of a complete assignment under whichever cost
// representation is set.
func (in *Instance) Cost(assign []int) float64 {
	m := in.M()
	switch {
	case in.FlatCosts != nil:
		var t int64
		for j, i := range assign {
			t += in.FlatCosts[qmatrix.Pack(i, j, m)]
		}
		return float64(t)
	case in.FlatCosts64 != nil:
		var t float64
		for j, i := range assign {
			t += in.FlatCosts64[qmatrix.Pack(i, j, m)]
		}
		return t
	default:
		var t float64
		for j, i := range assign {
			t += in.Costs[i][j]
		}
		return t
	}
}

// Feasible reports whether assign respects all bin capacities.
func (in *Instance) Feasible(assign []int) bool {
	loads := make([]int64, in.M())
	for j, i := range assign {
		if i < 0 || i >= in.M() {
			return false
		}
		loads[i] += in.Sizes[j]
	}
	for i, l := range loads {
		if l > in.Capacities[i] {
			return false
		}
	}
	return true
}

// RefineLevel selects how much local improvement follows the constructor.
type RefineLevel int

const (
	// RefineNone returns the raw MTHG construction.
	RefineNone RefineLevel = iota
	// RefineShift repeatedly relocates single items to cheaper feasible
	// bins until no move improves.
	RefineShift
	// RefineSwap additionally exchanges item pairs between bins and tries
	// depth-2 ejection chains; costlier but stronger. A swap pass is O(N²)
	// pair checks in the worst case, but bin-pair lower bounds skip every
	// partner bin that provably holds no improving swap, so typical passes
	// visit only a small fraction of the pairs (DESIGN.md §7.1).
	RefineSwap
)

// Options tunes Solve.
type Options struct {
	Refine          RefineLevel
	MaxRefinePasses int // ≤ 0 means a safe default
}

// number is the cost element constraint of the generic solver core.
type number interface{ ~int64 | ~float64 }

// view is the solver's internal window onto an instance: item-major flat
// costs plus the size/capacity vectors.
type view[T number] struct {
	flat  []T
	m     int
	sizes []int64
	caps  []int64
}

// col returns the contiguous cost column of item j (one entry per bin).
func (v *view[T]) col(j int) []T { return v.flat[j*v.m : (j+1)*v.m] }

func (v *view[T]) n() int { return len(v.sizes) }

func (v *view[T]) cost(assign []int) T {
	var t T
	for j, i := range assign {
		t += v.col(j)[i]
	}
	return t
}

// Solve runs MTHG plus refinement. It returns the assignment (assign[j] =
// bin), its cost, and whether it is capacity-feasible. On pathological
// instances where the constructor dead-ends and repair fails, the returned
// assignment may be infeasible (ok = false); callers that require
// feasibility must check.
//
// Cancellation: the constructor always runs to completion (its result is
// what makes the assignment valid at all); a cancelled ctx skips or cuts
// short the refinement sweeps, so the caller still gets a feasible — just
// less polished — assignment back promptly.
func Solve(ctx context.Context, in *Instance, opt Options) (assign []int, cost float64, ok bool) {
	return dispatch(ctx, in, opt, nil)
}

// Improve refines a caller-supplied capacity-feasible assignment in place
// with the same local search Solve applies after construction, and returns
// its final cost. ok is false, and assign is left untouched, when assign is
// not capacity-feasible. It answers instances where the MTHG constructor
// dead-ends although a feasible point is known. Cancellation cuts the
// refinement short exactly as in Solve.
func Improve(ctx context.Context, in *Instance, opt Options, assign []int) (cost float64, ok bool) {
	if len(assign) != in.N() || !in.Feasible(assign) {
		return 0, false
	}
	_, cost, ok = dispatch(ctx, in, opt, assign)
	return cost, ok
}

// dispatch runs solve on the instance's cost representation, refining
// start when it is non-nil and constructing with MTHG otherwise.
func dispatch(ctx context.Context, in *Instance, opt Options, start []int) (assign []int, cost float64, ok bool) {
	ck := interrupt.New(ctx, 0)
	switch {
	case in.FlatCosts != nil:
		v := &view[int64]{flat: in.FlatCosts, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		a, c, ok := solve(v, opt, &ck, start)
		return a, float64(c), ok
	case in.FlatCosts64 != nil:
		v := &view[float64]{flat: in.FlatCosts64, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solve(v, opt, &ck, start)
	default:
		v := &view[float64]{flat: transpose(in.Costs, in.N()), m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solve(v, opt, &ck, start)
	}
}

// transpose flattens a bin-major matrix into the item-major layout.
func transpose(costs [][]float64, n int) []float64 {
	m := len(costs)
	flat := make([]float64, m*n)
	for i, row := range costs {
		for j, c := range row {
			flat[qmatrix.Pack(i, j, m)] = c
		}
	}
	return flat
}

func solve[T number](v *view[T], opt Options, ck *interrupt.Checker, start []int) (assign []int, cost T, ok bool) {
	if assign, ok = start, start != nil; !ok {
		assign, ok = construct(v)
	}
	if ok {
		refine(v, assign, opt, ck)
	}
	return assign, v.cost(assign), ok
}

// regretItem is a heap entry: the cached best/second-best feasible bins of
// an unassigned item. The ordering keys are held as float64 regardless of
// the cost element type; integer costs below 2⁵³ convert exactly, so the
// int64 path orders identically to the float64 path.
type regretItem struct {
	j            int
	best, second int     // bin indices; -1 when absent
	bestC        float64 // cost at best
	regret       float64 // second-best − best (+Inf when only one bin fits)
}

type regretHeap []regretItem

func (h regretHeap) Len() int { return len(h) }
func (h regretHeap) Less(a, b int) bool {
	// Max-heap on regret; ties broken by cheaper best cost for determinism.
	// Exact float comparison is deliberate in both guards: a comparator must
	// stay transitive, and an epsilon here would break the heap invariant.
	//lint:ignore float-equality ordering tie-break, not a value comparison
	if h[a].regret != h[b].regret {
		return h[a].regret > h[b].regret
	}
	//lint:ignore float-equality ordering tie-break, not a value comparison
	if h[a].bestC != h[b].bestC {
		return h[a].bestC < h[b].bestC
	}
	return h[a].j < h[b].j
}
func (h regretHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *regretHeap) Push(x any)   { *h = append(*h, x.(regretItem)) }
func (h *regretHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// score computes the best/second-best feasible bins of item j given the
// remaining capacities. ok is false when no bin fits.
func score[T number](v *view[T], j int, remaining []int64) (it regretItem, ok bool) {
	it = regretItem{j: j, best: -1, second: -1}
	sz := v.sizes[j]
	col := v.col(j)
	var bestC, secondC T
	for i := range v.caps {
		if remaining[i] < sz {
			continue
		}
		c := col[i]
		switch {
		case it.best < 0 || c < bestC:
			it.second, secondC = it.best, bestC
			it.best, bestC = i, c
		case it.second < 0 || c < secondC:
			it.second, secondC = i, c
		}
	}
	if it.best < 0 {
		return it, false
	}
	it.bestC = float64(bestC)
	if it.second < 0 {
		it.regret = math.Inf(1)
	} else {
		it.regret = float64(secondC) - float64(bestC)
	}
	return it, true
}

// construct is the MTHG regret constructor with lazy cache revalidation:
// since capacities only shrink, a cached (best, second) stays valid as long
// as both bins still fit the item.
func construct[T number](v *view[T]) (assign []int, ok bool) {
	n := v.n()
	assign = make([]int, n)
	for j := range assign {
		assign[j] = -1
	}
	remaining := append([]int64(nil), v.caps...)

	h := make(regretHeap, 0, n)
	for j := 0; j < n; j++ {
		it, fits := score(v, j, remaining)
		if !fits {
			return repair(v, assign, remaining, j)
		}
		h = append(h, it)
	}
	heap.Init(&h)

	// Bounded drain: every pop either assigns an item for good or
	// revalidates one stale cache entry, and entries only go stale when a
	// capacity shrank — at most n shrinks, so the loop is O(n²) worst case
	// and terminates with the instance.
	//lint:ignore cancel-poll heap drain is bounded by n assignments plus one revalidation per capacity shrink
	for h.Len() > 0 {
		it := heap.Pop(&h).(regretItem)
		if assign[it.j] >= 0 {
			continue
		}
		sz := v.sizes[it.j]
		stale := remaining[it.best] < sz ||
			(it.second >= 0 && remaining[it.second] < sz)
		if stale {
			fresh, fits := score(v, it.j, remaining)
			if !fits {
				// Repair completes the whole assignment, so no restart
				// of the constructor is needed.
				return repair(v, assign, remaining, it.j)
			}
			heap.Push(&h, fresh)
			continue
		}
		assign[it.j] = it.best
		remaining[it.best] -= sz
	}
	return assign, true
}

// repair finishes a construction that dead-ended: the stuck item (and any
// other still-unassigned items) are forced into the bin with the largest
// remaining capacity, then overloaded bins are relieved by cheapest-penalty
// shifts. Returns ok = false when overloads cannot be eliminated.
func repair[T number](v *view[T], assign []int, remaining []int64, stuck int) ([]int, bool) {
	m := v.m
	force := func(j int) {
		best := 0
		for i := 1; i < m; i++ {
			if remaining[i] > remaining[best] {
				best = i
			}
		}
		assign[j] = best
		remaining[best] -= v.sizes[j]
	}
	force(stuck)
	for j := range assign {
		if assign[j] < 0 {
			// Prefer a feasible bin if one exists; force otherwise.
			if it, fits := score(v, j, remaining); fits {
				assign[j] = it.best
				remaining[it.best] -= v.sizes[j]
			} else {
				force(j)
			}
		}
	}
	// Relieve overloads: repeatedly move the item whose relocation costs
	// least from an overloaded bin to a bin with slack.
	for iter := 0; iter < len(assign)*m+m; iter++ {
		over := -1
		for i := 0; i < m; i++ {
			if remaining[i] < 0 {
				over = i
				break
			}
		}
		if over < 0 {
			return assign, true
		}
		bestJ, bestI := -1, -1
		bestPenalty := math.Inf(1)
		for j, i := range assign {
			if i != over {
				continue
			}
			sz := v.sizes[j]
			col := v.col(j)
			for i2 := 0; i2 < m; i2++ {
				if i2 == over || remaining[i2] < sz {
					continue
				}
				pen := float64(col[i2] - col[over])
				if pen < bestPenalty {
					bestPenalty, bestJ, bestI = pen, j, i2
				}
			}
		}
		if bestJ < 0 {
			return assign, false
		}
		assign[bestJ] = bestI
		remaining[over] += v.sizes[bestJ]
		remaining[bestI] -= v.sizes[bestJ]
	}
	return assign, false
}

// refine applies shift (and optionally swap) local search in place. Checks
// ck at sweep boundaries: every sweep leaves the assignment and the
// remaining-capacity vector consistent, so stopping between sweeps is safe.
func refine[T number](v *view[T], assign []int, opt Options, ck *interrupt.Checker) {
	passes := opt.MaxRefinePasses
	if passes <= 0 {
		passes = 50
	}
	if opt.Refine == RefineNone {
		return
	}
	r := newRefiner(v, assign, opt.Refine >= RefineSwap)
	// MaxRefinePasses caps only the expensive sweeps (swap, eject as a last
	// resort): each outer pass first drains all shift moves.
	for pass := 0; pass < passes; pass++ {
		if ck.Now() {
			return
		}
		for k := 0; k < 200; k++ {
			if !r.shiftSweep() || ck.Now() {
				break
			}
		}
		if opt.Refine < RefineSwap || ck.Now() {
			return
		}
		improved := r.swapSweep()
		// Ejection is the expensive last resort: only scan for depth-2
		// chains once shifts and swaps have dried up.
		if !improved && r.eject() {
			improved = true
		}
		if !improved {
			return
		}
	}
}

// refiner is the state of one refine call: the assignment being improved,
// its remaining capacities, and — for swap refinement — the bin-pair bound
// table that lets the swap and eject neighbourhoods skip, exactly, every
// candidate that provably cannot improve (DESIGN.md §7.1). The scratch is
// allocated once per call and reused by every sweep.
type refiner[T number] struct {
	v         *view[T]
	assign    []int
	remaining []int64

	// lb[qmatrix.Pack(t, b, m)] ≤ col_k[t] − col_k[b] for every item k
	// currently in bin b (meaningless while cnt[b] == 0); lbMin[b] is its
	// minimum over t ≠ b. Entries only ever fall between rebuilds, except
	// when an item enters an empty bin and the row restarts from it.
	lb      []T
	lbMin   []T
	cnt     []int // items per bin
	members *bitset.Membership
	qual    []int // bins that may hold an improving swap partner of the current item
	// swapThr is the swap-prune threshold: a bin is skipped when its bound
	// is ≥ swapThr. −1e−12 (the improvement test's own tolerance) on the
	// exact int64 path; on the float64 path it carries the rounding margin,
	// and is +Inf (no pruning) when the costs are too large to bound.
	swapThr float64
}

func newRefiner[T number](v *view[T], assign []int, swap bool) *refiner[T] {
	m := v.m
	r := &refiner[T]{v: v, assign: assign, remaining: append([]int64(nil), v.caps...)}
	for j, i := range assign {
		r.remaining[i] -= v.sizes[j]
	}
	if swap {
		r.lb = make([]T, m*m)
		r.lbMin = make([]T, m)
		r.cnt = make([]int, m)
		r.members = bitset.NewMembership(m, v.n())
		r.qual = make([]int, 0, m)
		r.swapThr = swapThreshold(v.flat)
	}
	return r
}

// swapThreshold returns the swap-prune threshold for costs flat. The swap
// delta col1[i2] + col2[i1] − col1[i1] − col2[i2] and its bound
// (col1[b] − col1[i1]) + lb[b][i1] are evaluated in T. In int64 both are
// exact for costs below 2⁶⁰ in magnitude (no four-term sum overflows), so
// delta ≥ bound and the plain tolerance is exact. In float64, with every
// |cost| ≤ C and unit roundoff u = 2⁻⁵³, the three roundings of the delta
// err by ≤ 9uC and those of the bound (its lb entry included) by ≤ 8uC, so
// a computed delta is ≥ the computed bound − 17uC. Pruning only bounds ≥
// −1e−12 + 512uC (= C·2⁻⁴⁴, which also absorbs the rounding of that sum)
// therefore never skips a delta that tests < −1e−12. Below C ≈ 2.5e−13 no
// delta can test < −1e−12 at all, so the margin needs no floor.
func swapThreshold[T number](flat []T) float64 {
	const tol = -1e-12
	var zero T
	if _, isFloat := any(zero).(float64); !isFloat {
		return tol
	}
	var c float64
	for _, x := range flat {
		c = math.Max(c, math.Abs(float64(x)))
	}
	if !(c <= 1e300) { // Inf (or a sum that could overflow): prune nothing
		return math.Inf(1)
	}
	return tol + c*0x1p-44
}

// row returns bin b's bound row: row(b)[t] bounds col_k[t] − col_k[b].
func (r *refiner[T]) row(b int) []T {
	m := r.v.m
	return r.lb[qmatrix.Pack(0, b, m):qmatrix.Pack(0, b+1, m)]
}

// rebuild re-derives the membership index, bin counts and bound table from
// the current assignment in O(N·M).
func (r *refiner[T]) rebuild() {
	r.members.Build(r.assign)
	for b := range r.cnt {
		r.cnt[b] = 0
	}
	for k, b := range r.assign {
		r.enter(k, b)
	}
}

// enter accounts item k arriving in bin b: the bin's bound row falls to
// include k (or restarts from k when the bin was empty).
func (r *refiner[T]) enter(k, b int) {
	col := r.v.col(k)
	row := r.row(b)
	cb := col[b]
	if r.cnt[b] == 0 {
		var lo T
		first := true
		for t, c := range col {
			d := c - cb
			row[t] = d
			if t != b && (first || d < lo) {
				lo, first = d, false
			}
		}
		r.lbMin[b] = lo
	} else {
		lo := r.lbMin[b]
		for t, c := range col {
			if d := c - cb; d < row[t] {
				row[t] = d
				if t != b && d < lo {
					lo = d
				}
			}
		}
		r.lbMin[b] = lo
	}
	r.cnt[b]++
}

// shiftSweep is one pass of single-item relocations; cheap (O(N·M)), so
// refine always runs it to convergence inside each outer pass.
func (r *refiner[T]) shiftSweep() bool {
	v, assign, remaining := r.v, r.assign, r.remaining
	m, n := v.m, v.n()
	improved := false
	for j := 0; j < n; j++ {
		cur := assign[j]
		sz := v.sizes[j]
		col := v.col(j)
		bestI, bestC := cur, col[cur]
		for i := 0; i < m; i++ {
			if i == cur || remaining[i] < sz {
				continue
			}
			if c := col[i]; c < bestC {
				bestI, bestC = i, c
			}
		}
		if bestI != cur {
			assign[j] = bestI
			remaining[cur] += sz
			remaining[bestI] -= sz
			improved = true
		}
	}
	return improved
}

// qualify fills r.qual with the bins b ≠ i1 that may hold a swap partner
// improving on item col1 in bin i1: every partner k in b has delta ≥
// col1[b] − col1[i1] + lb[b][i1], so a bin whose bound reaches swapThr
// holds none.
func (r *refiner[T]) qualify(col1 []T, i1 int) {
	m := r.v.m
	r.qual = r.qual[:0]
	base := col1[i1]
	for b := 0; b < m; b++ {
		if b == i1 || r.cnt[b] == 0 {
			continue
		}
		if float64(col1[b]-base+r.lb[qmatrix.Pack(i1, b, m)]) < r.swapThr {
			r.qual = append(r.qual, b)
		}
	}
}

// union returns word w of the membership union of the qualifying bins.
func (r *refiner[T]) union(w int) uint64 {
	var word uint64
	for _, b := range r.qual {
		word |= r.members.Part(b).Words()[w]
	}
	return word
}

// swapSweep exchanges item pairs between bins, first improvement in
// ascending (j1, j2) order. Only partners in qualifying bins are visited —
// in ascending index order, by walking the OR of their membership words —
// so the sequence of applied swaps is exactly that of the full O(N²) scan.
func (r *refiner[T]) swapSweep() bool {
	v, assign, remaining := r.v, r.assign, r.remaining
	n := v.n()
	words := (n + 63) >> 6
	r.rebuild()
	improved := false
	for j1 := 0; j1 < n; j1++ {
		i1 := assign[j1]
		s1 := v.sizes[j1]
		col1 := v.col(j1)
		r.qualify(col1, i1)
		from := j1 + 1
		for w := from >> 6; w < words && len(r.qual) > 0; w++ {
			word := r.union(w)
			if w == from>>6 {
				word &= ^uint64(0) << uint(from&63)
			}
			for word != 0 {
				j2 := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				i2 := assign[j2]
				s2 := v.sizes[j2]
				if remaining[i1]+s1 < s2 || remaining[i2]+s2 < s1 {
					continue
				}
				col2 := v.col(j2)
				delta := col1[i2] + col2[i1] - col1[i1] - col2[i2]
				if float64(delta) < -1e-12 {
					assign[j1], assign[j2] = i2, i1
					remaining[i1] += s1 - s2
					remaining[i2] += s2 - s1
					r.members.Move(j1, i1, i2)
					r.members.Move(j2, i2, i1)
					r.enter(j1, i2)
					r.enter(j2, i1)
					r.cnt[i1]--
					r.cnt[i2]--
					i1 = i2
					improved = true
					r.qualify(col1, i1)
					word = r.union(w) & (^uint64(0) << uint(j2&63) << 1)
				}
			}
		}
	}
	return improved
}

// eject performs depth-2 shifts: move item j into bin i after evicting one
// item k from i to a third bin, when the combined cost delta is negative.
// This escapes local optima that single shifts and pairwise swaps cannot
// (three-way rotations). Returns whether any move was applied. The
// O(|bin|·M) eviction scan for (j, i) is skipped when even the bin's bound
// lbMin[i] ≤ every eviction delta cannot make the move improving; that
// bound is the minimum of the very values the scan compares, so the skip
// is exact in both cost types.
func (r *refiner[T]) eject() bool {
	v, assign, remaining := r.v, r.assign, r.remaining
	m, n := v.m, v.n()
	r.rebuild()
	moved := false
	for j := 0; j < n; j++ {
		s := assign[j]
		sj := v.sizes[j]
		colJ := v.col(j)
		for i := 0; i < m; i++ {
			if i == s {
				continue
			}
			gain0 := float64(colJ[i] - colJ[s])
			if remaining[i] >= sj {
				continue // plain shift handles this case
			}
			if r.cnt[i] == 0 || gain0+float64(r.lbMin[i]) >= -1e-12 {
				continue // no eviction from i can pay for the move
			}
			// Find the cheapest eviction k: i → b that makes room. The
			// membership bitset iterates bin i ascending.
			bestDelta := math.Inf(1)
			bestK, bestB := -1, -1
			bin := r.members.Part(i)
			for k := bin.NextSet(0); k < n; k = bin.NextSet(k + 1) {
				sk := v.sizes[k]
				if remaining[i]+sk < sj {
					continue
				}
				colK := v.col(k)
				for b := 0; b < m; b++ {
					room := remaining[b]
					if b == s {
						room += sj // j will have left s by the time k arrives
					}
					if b == i || room < sk {
						continue
					}
					d := float64(colK[b] - colK[i])
					if d < bestDelta {
						bestDelta, bestK, bestB = d, k, b
					}
				}
			}
			if bestK >= 0 && gain0+bestDelta < -1e-12 {
				// Apply: k out of i, j into i.
				remaining[i] += v.sizes[bestK]
				remaining[bestB] -= v.sizes[bestK]
				assign[bestK] = bestB
				remaining[s] += sj
				remaining[i] -= sj
				assign[j] = i
				r.members.Move(bestK, i, bestB)
				r.members.Move(j, s, i)
				r.enter(bestK, bestB)
				r.enter(j, i)
				r.cnt[i]--
				r.cnt[s]--
				moved = true
				break
			}
		}
	}
	return moved
}

// SolveExact finds the optimal assignment by depth-first branch and bound
// with a per-item best-cost lower bound. Intended for small instances
// (N ≲ 14) in tests. Returns ok = false when no feasible assignment exists.
// A ctx cancelled mid-search aborts the remaining tree and returns the
// incumbent found so far (ok = false when none was reached yet) — the
// result is then a feasible upper bound, not a proven optimum.
func SolveExact(ctx context.Context, in *Instance) (assign []int, cost float64, ok bool) {
	ck := interrupt.New(ctx, 4096)
	switch {
	case in.FlatCosts != nil:
		v := &view[int64]{flat: in.FlatCosts, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solveExact(v, &ck)
	case in.FlatCosts64 != nil:
		v := &view[float64]{flat: in.FlatCosts64, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solveExact(v, &ck)
	default:
		v := &view[float64]{flat: transpose(in.Costs, in.N()), m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solveExact(v, &ck)
	}
}

// solveExact accumulates bounds and costs in float64 for both element
// types: the float64 path reproduces the historical arithmetic exactly, and
// integral costs below 2⁵³ stay exact under the conversion. The dfs polls
// ck once per amortization window (node-count granularity), so the search
// core stays branch-cheap.
func solveExact[T number](v *view[T], ck *interrupt.Checker) (assign []int, cost float64, ok bool) {
	m, n := v.m, v.n()
	// Branch on items in decreasing size for earlier capacity pruning.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if v.sizes[order[b]] > v.sizes[order[a]] {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	// Lower bound suffix in branch order: lb[j] = Σ_{k ≥ j} min_i cost of
	// item order[k] (capacity ignored).
	lb := make([]float64, n+1)
	for j := n - 1; j >= 0; j-- {
		best := math.Inf(1)
		col := v.col(order[j])
		for i := 0; i < m; i++ {
			if c := float64(col[i]); c < best {
				best = c
			}
		}
		lb[j] = lb[j+1] + best
	}

	bestCost := math.Inf(1)
	var bestAssign []int
	cur := make([]int, n)
	remaining := append([]int64(nil), v.caps...)
	var dfs func(depth int, acc float64)
	dfs = func(depth int, acc float64) {
		if ck.Stop() {
			return
		}
		if acc+lb[depth] >= bestCost {
			return
		}
		if depth == n {
			bestCost = acc
			bestAssign = append([]int(nil), cur...)
			return
		}
		j := order[depth]
		sz := v.sizes[j]
		col := v.col(j)
		for i := 0; i < m; i++ {
			if remaining[i] < sz {
				continue
			}
			cur[j] = i
			remaining[i] -= sz
			dfs(depth+1, acc+float64(col[i]))
			remaining[i] += sz
		}
	}
	dfs(0, 0)
	if bestAssign == nil {
		return nil, 0, false
	}
	return bestAssign, bestCost, true
}
