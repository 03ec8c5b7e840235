package gap

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func randomInstance(rng *rand.Rand, m, n int, slack float64) *Instance {
	in := &Instance{
		Costs:      make([][]float64, m),
		Sizes:      make([]int64, n),
		Capacities: make([]int64, m),
	}
	var total int64
	for j := 0; j < n; j++ {
		in.Sizes[j] = int64(1 + rng.Intn(9))
		total += in.Sizes[j]
	}
	capEach := int64(math.Ceil(float64(total) / float64(m) * slack))
	for i := 0; i < m; i++ {
		in.Capacities[i] = capEach
		in.Costs[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			in.Costs[i][j] = math.Floor(rng.Float64() * 100)
		}
	}
	return in
}

func TestValidate(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(1)), 3, 5, 1.5)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *in
	bad.Sizes = append([]int64(nil), in.Sizes...)
	bad.Sizes[0] = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
	bad2 := *in
	bad2.Capacities = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("no bins accepted")
	}
	bad3 := *in
	bad3.Costs = in.Costs[:1]
	if err := bad3.Validate(); err == nil {
		t.Fatal("misshapen costs accepted")
	}
}

func TestSolveSmallKnown(t *testing.T) {
	// Two bins, three items. Item sizes force a split.
	in := &Instance{
		Costs: [][]float64{
			{1, 10, 10},
			{10, 1, 1},
		},
		Sizes:      []int64{5, 5, 5},
		Capacities: []int64{10, 10},
	}
	assign, cost, ok := Solve(context.Background(), in, Options{Refine: RefineSwap})
	if !ok {
		t.Fatal("feasible instance reported infeasible")
	}
	if cost != 3 {
		t.Fatalf("cost = %v, want 3 (assign=%v)", cost, assign)
	}
	if !in.Feasible(assign) {
		t.Fatalf("infeasible result %v", assign)
	}
}

func TestSolveRespectsCapacityWhenCheapBinIsFull(t *testing.T) {
	// Everyone prefers bin 0 but it only fits one item.
	in := &Instance{
		Costs: [][]float64{
			{0, 0, 0},
			{5, 6, 7},
		},
		Sizes:      []int64{4, 4, 4},
		Capacities: []int64{4, 12},
	}
	assign, cost, ok := Solve(context.Background(), in, Options{Refine: RefineShift})
	if !ok || !in.Feasible(assign) {
		t.Fatalf("expected feasible solution, got ok=%v assign=%v", ok, assign)
	}
	// Optimal: the item with the largest bin-1 cost (item 2... no: we pay
	// bin-1 cost for two items; cheapest pair is {0,1} → 11; item 2 → bin 0.
	if cost != 11 {
		t.Fatalf("cost = %v, want 11 (assign=%v)", cost, assign)
	}
}

func TestSolveExactKnown(t *testing.T) {
	in := &Instance{
		Costs: [][]float64{
			{2, 9, 3},
			{4, 1, 8},
		},
		Sizes:      []int64{3, 3, 3},
		Capacities: []int64{6, 6},
	}
	assign, cost, ok := SolveExact(context.Background(), in)
	if !ok {
		t.Fatal("exact solver failed")
	}
	if cost != 6 { // items 0,2 → bin 0 (2+3), item 1 → bin 1 (1)
		t.Fatalf("exact cost = %v, want 6 (assign=%v)", cost, assign)
	}
}

func TestSolveExactInfeasible(t *testing.T) {
	in := &Instance{
		Costs:      [][]float64{{1, 1}},
		Sizes:      []int64{3, 3},
		Capacities: []int64{5},
	}
	if _, _, ok := SolveExact(context.Background(), in); ok {
		t.Fatal("infeasible instance solved")
	}
}

// The heuristic must always return feasible solutions on instances with
// reasonable slack, and stay within a modest factor of the exact optimum.
func TestHeuristicNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sum float64
	count, far := 0, 0
	for trial := 0; trial < 150; trial++ {
		m := 2 + rng.Intn(3)
		n := 3 + rng.Intn(8)
		slack := 1.2 + rng.Float64()
		in := randomInstance(rng, m, n, slack)
		exact, exCost, exOK := SolveExact(context.Background(), in)
		assign, cost, ok := Solve(context.Background(), in, Options{Refine: RefineSwap})
		if !exOK {
			continue // extremely tight; heuristic may legitimately fail too
		}
		if !ok {
			t.Fatalf("trial %d: heuristic failed on exactly-feasible instance", trial)
		}
		if !in.Feasible(assign) {
			t.Fatalf("trial %d: heuristic returned infeasible assignment", trial)
		}
		if cost+1e-9 < exCost {
			t.Fatalf("trial %d: heuristic cost %v below exact optimum %v (%v vs %v)", trial, cost, exCost, assign, exact)
		}
		if exCost > 0 {
			r := cost / exCost
			sum += r
			count++
			if r > 1.5 {
				far++
			}
			if r > 2.5 {
				t.Fatalf("trial %d: heuristic %0.2f× from optimum (%v vs %v)", trial, r, cost, exCost)
			}
		}
	}
	// MTHG + shift/swap/eject is a heuristic: require near-optimality in
	// distribution, tolerating rare capacity-locked rotations it cannot see.
	if mean := sum / float64(count); mean > 1.05 {
		t.Fatalf("mean quality ratio %0.3f over %d trials; want ≤ 1.05", mean, count)
	}
	if far > count/50 {
		t.Fatalf("%d/%d trials strayed beyond 1.5× from optimum", far, count)
	}
}

// Very tight capacities: total size equals total capacity. MTHG must
// construct (possibly via repair) a feasible packing when one exists.
func TestTightPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	solved := 0
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(2)
		n := 4 + rng.Intn(6)
		in := randomInstance(rng, m, n, 1.02)
		_, _, exOK := SolveExact(context.Background(), in)
		assign, _, ok := Solve(context.Background(), in, Options{Refine: RefineShift})
		if ok && !in.Feasible(assign) {
			t.Fatalf("trial %d: ok=true but infeasible", trial)
		}
		if exOK && ok {
			solved++
		}
		if ok && !exOK {
			t.Fatalf("trial %d: heuristic feasible but exact says infeasible", trial)
		}
	}
	if solved < 40 {
		t.Fatalf("heuristic solved only %d tight instances", solved)
	}
}

func TestRefineImprovesOrKeeps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(rng, 4, 12, 1.5)
		_, costNone, okN := Solve(context.Background(), in, Options{Refine: RefineNone})
		_, costShift, okS := Solve(context.Background(), in, Options{Refine: RefineShift})
		_, costSwap, okW := Solve(context.Background(), in, Options{Refine: RefineSwap})
		if !okN || !okS || !okW {
			continue
		}
		if costShift > costNone+1e-9 {
			t.Fatalf("trial %d: shift refinement worsened cost %v → %v", trial, costNone, costShift)
		}
		if costSwap > costShift+1e-9 {
			t.Fatalf("trial %d: swap refinement worsened cost %v → %v", trial, costShift, costSwap)
		}
	}
}

func TestCostAndFeasibleHelpers(t *testing.T) {
	in := &Instance{
		Costs:      [][]float64{{1, 2}, {3, 4}},
		Sizes:      []int64{1, 1},
		Capacities: []int64{1, 1},
	}
	if got := in.Cost([]int{0, 1}); got != 5 {
		t.Fatalf("Cost = %v, want 5", got)
	}
	if !in.Feasible([]int{0, 1}) {
		t.Fatal("balanced assignment reported infeasible")
	}
	if in.Feasible([]int{0, 0}) {
		t.Fatal("overloaded assignment reported feasible")
	}
	if in.Feasible([]int{0, 7}) {
		t.Fatal("out-of-range assignment reported feasible")
	}
}

func BenchmarkSolveM16N600(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := randomInstance(rng, 16, 600, 1.15)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, ok := Solve(context.Background(), in, Options{Refine: RefineShift}); !ok {
			b.Fatal("infeasible")
		}
	}
}

// TestImprove: Improve refines a feasible assignment in place to a cost no
// worse than the start, and refuses an infeasible or misshapen one without
// touching it.
func TestImprove(t *testing.T) {
	in := &Instance{
		FlatCosts:  []int64{9, 1, 1, 9, 9, 1},
		Sizes:      []int64{1, 1, 1},
		Capacities: []int64{2, 2},
	}
	a := []int{0, 1, 0}
	startCost := in.Cost(a)
	cost, ok := Improve(context.Background(), in, Options{Refine: RefineSwap}, a)
	if !ok || cost != in.Cost(a) || cost >= startCost || !in.Feasible(a) {
		t.Fatalf("Improve = %v, %v on %v (start cost %v)", cost, ok, a, startCost)
	}
	over := []int{0, 0, 0}
	if _, ok := Improve(context.Background(), in, Options{Refine: RefineSwap}, over); ok || over[2] != 0 {
		t.Fatalf("Improve accepted or changed an overloaded assignment: %v", over)
	}
	if _, ok := Improve(context.Background(), in, Options{}, []int{0}); ok {
		t.Fatal("Improve accepted a short assignment")
	}
}
