package gap

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/interrupt"
)

// Cost shapes for the pruning exactness checks.
const (
	kindInt       = iota // int64 costs in [0, 100)
	kindTies             // int64 costs in {0, 1, 2}: exact-zero deltas everywhere
	kindFloatInt         // float64 costs holding small integers
	kindEta              // float64 h += η/denom, large and fractional
	kindEtaOffset        // kindEta around a 1e9 offset: rounding at every step
	kindTiny             // float64 multiples of 3e−13: deltas straddle −1e−12
	numKinds
)

// pruneCase builds an instance of the given shape with a random assignment
// that is feasible by construction: each bin's capacity is its load under
// that assignment plus a slack of 0 (zero-slack bins) up to a few units.
func pruneCase(rng *rand.Rand, m, n, kind int) (assign []int, sizes, caps []int64, i64 []int64, f64 []float64) {
	assign = make([]int, n)
	sizes = make([]int64, n)
	caps = make([]int64, m)
	for j := range assign {
		assign[j] = rng.Intn(m)
		sizes[j] = 1 + rng.Int63n(6)
		caps[assign[j]] += sizes[j]
	}
	for i := range caps {
		if rng.Intn(3) > 0 {
			caps[i] += rng.Int63n(8)
		}
	}
	switch kind {
	case kindInt, kindTies:
		span := int64(100)
		if kind == kindTies {
			span = 3
		}
		i64 = make([]int64, m*n)
		for r := range i64 {
			i64[r] = rng.Int63n(span)
		}
	case kindFloatInt:
		f64 = make([]float64, m*n)
		for r := range f64 {
			f64[r] = float64(rng.Intn(100))
		}
	case kindEta, kindEtaOffset:
		// The STEP 5 accumulation: integral η columns scaled by
		// 1/max(1, |z − ξ|) and summed over a few iterations.
		f64 = make([]float64, m*n)
		if kind == kindEtaOffset {
			for r := range f64 {
				f64[r] = 1e9
			}
		}
		for it := 0; it < 1+rng.Intn(6); it++ {
			denom := math.Max(1, math.Abs(rng.NormFloat64()*1e4))
			for r := range f64 {
				f64[r] += float64(rng.Int63n(1_000_000)) / denom
			}
		}
	case kindTiny:
		f64 = make([]float64, m*n)
		for r := range f64 {
			f64[r] = float64(rng.Intn(9)) * 3e-13
		}
	}
	return assign, sizes, caps, i64, f64
}

// checkPruned runs the pruned refiner and the reference sweeps side by side
// from assign0 and fails on the first pass after which their assignments,
// remaining capacities or improvement flags differ.
func checkPruned[T number](t testing.TB, v *view[T], assign0 []int) {
	t.Helper()
	r := newRefiner(v, slices.Clone(assign0), true)
	ref := slices.Clone(assign0)
	refRem := slices.Clone(r.remaining)
	same := func(step string, pass int, got, want bool) {
		t.Helper()
		if got != want || !slices.Equal(r.assign, ref) || !slices.Equal(r.remaining, refRem) {
			t.Fatalf("pass %d %s: pruned (improved=%v) diverged from reference (improved=%v)", pass, step, got, want)
		}
	}
	for pass := 0; pass < 20; pass++ {
		for k := 0; k < 200; k++ {
			a, b := r.shiftSweep(), refShiftSweep(v, ref, refRem)
			same("shift", pass, a, b)
			if !a {
				break
			}
		}
		a, b := r.swapSweep(), refSwapSweep(v, ref, refRem)
		same("swap", pass, a, b)
		c, d := r.eject(), refEject(v, ref, refRem)
		same("eject", pass, c, d)
		if !a && !c {
			return
		}
	}
}

// checkPrunedCase runs checkPruned on one generated case, plus the whole
// refine driver against its reference from both the random start and the
// MTHG construction.
func checkPrunedCase(t testing.TB, seed int64, m, n, kind int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	assign, sizes, caps, i64, f64 := pruneCase(rng, m, n, kind)
	opt := Options{Refine: RefineSwap}
	if i64 != nil {
		v := &view[int64]{flat: i64, m: m, sizes: sizes, caps: caps}
		checkPruned(t, v, assign)
		checkRefine(t, v, assign, opt)
	} else {
		v := &view[float64]{flat: f64, m: m, sizes: sizes, caps: caps}
		checkPruned(t, v, assign)
		checkRefine(t, v, assign, opt)
	}
}

func checkRefine[T number](t testing.TB, v *view[T], start []int, opt Options) {
	t.Helper()
	starts := [][]int{start}
	if a, ok := construct(v); ok {
		starts = append(starts, a)
	}
	for _, s := range starts {
		got, want := slices.Clone(s), slices.Clone(s)
		refine(v, got, opt, &interrupt.Checker{})
		refRefine(v, want, opt)
		if !slices.Equal(got, want) {
			t.Fatalf("refine diverged from the unpruned reference")
		}
	}
}

// TestRefinePrunedMatchesReference: the bound-pruned swap and eject sweeps
// apply exactly the moves of the full scans, pass by pass, across cost
// types and shapes, both bin counts the solver sees in practice, and item
// counts on and off the 64-bit word boundary.
func TestRefinePrunedMatchesReference(t *testing.T) {
	for kind := 0; kind < numKinds; kind++ {
		for _, m := range []int{2, 16} {
			for _, n := range []int{1, 2, 63, 64, 65, 130, 257} {
				for seed := int64(0); seed < 4; seed++ {
					t.Run(fmt.Sprintf("kind=%d/m=%d/n=%d/seed=%d", kind, m, n, seed), func(t *testing.T) {
						checkPrunedCase(t, seed, m, n, kind)
					})
				}
			}
		}
	}
}

// TestSwapPruneFloatMargin: a float64 swap whose exact delta is 0 but
// whose computed delta rounds to −0.3 ulp(1e9) < −1e−12, so the reference
// takes it, while the computed bound is exactly 0. Only the rounding
// margin keeps the pruned sweep from skipping the partner bin.
func TestSwapPruneFloatMargin(t *testing.T) {
	c := 0.3 * 0x1p-23 // 0.3 ulp at 1e9: 1e9 + c rounds back to 1e9
	v := &view[float64]{
		flat:  []float64{1e9, 1e9, c, c},
		m:     2,
		sizes: []int64{1, 1},
		caps:  []int64{1, 1},
	}
	if d := v.flat[1] + v.flat[2] - v.flat[0] - v.flat[3]; !(d < -1e-12) {
		t.Fatalf("instance does not round: delta = %v", d)
	}
	checkPruned(t, v, []int{0, 1})
}

// TestSwapThresholdShape pins the prune threshold: the bare tolerance on
// the exact int64 path, a margin growing with the cost magnitude on the
// float64 path, and no pruning when costs are unbounded.
func TestSwapThresholdShape(t *testing.T) {
	if got := swapThreshold([]int64{-5, 1 << 40}); got != -1e-12 {
		t.Fatalf("int64 threshold = %v, want -1e-12", got)
	}
	small := swapThreshold([]float64{1, -2})
	large := swapThreshold([]float64{1e9, 3})
	if !(small > -1e-12 && large > small && large < 1e-3) {
		t.Fatalf("float64 thresholds small=%v large=%v out of shape", small, large)
	}
	if got := swapThreshold([]float64{0, math.Inf(-1)}); !math.IsInf(got, 1) {
		t.Fatalf("infinite-cost threshold = %v, want +Inf", got)
	}
}

// FuzzRefinePruned explores instance shapes for a divergence between the
// pruned refiner and the unpruned reference.
func FuzzRefinePruned(f *testing.F) {
	for kind := uint8(0); kind < numKinds; kind++ {
		f.Add(int64(kind), uint8(0), uint16(100), kind)  // M=2
		f.Add(int64(kind), uint8(14), uint16(130), kind) // M=16
		f.Add(int64(kind)+7, uint8(5), uint16(65), kind)
	}
	f.Fuzz(func(t *testing.T, seed int64, mb uint8, nb uint16, kind uint8) {
		m := 2 + int(mb)%15
		n := 1 + int(nb)%300
		checkPrunedCase(t, seed, m, n, int(kind)%numKinds)
	})
}
