package gap

// Benchmarks for the three cost representations of Solve. The flat paths
// avoid the per-call transpose; the int64 path additionally runs the whole
// constructor/refinement in integer arithmetic.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkGAPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	byRows, byFlat64, byFlatInt := integralInstance(rng, 6, 150)
	opt := Options{Refine: RefineSwap, MaxRefinePasses: 3}
	for _, c := range []struct {
		name string
		in   *Instance
	}{
		{"rows", byRows},
		{"flat64", byFlat64},
		{"flatint", byFlatInt},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", c.name, c.in.N()), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				if _, _, ok := Solve(context.Background(), c.in, opt); !ok {
					b.Fatal("infeasible")
				}
			}
		})
	}
	// Density sweep: cost columns built like the η of a degree-deg circuit
	// (sum of a few shared effective rows), the exact subproblem shape the
	// sparse qbp kernels hand over via FlatCosts.
	for _, deg := range []int{4, 16, 149} {
		in := sparseEtaInstance(rng, 6, 150, deg)
		b.Run(fmt.Sprintf("eta/deg=%d/n=%d", deg, in.N()), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				if _, _, ok := Solve(context.Background(), in, opt); !ok {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

// sparseEtaInstance mimics the STEP 4 subproblem of an average-degree-deg
// circuit: each item's cost column is the weighted sum of deg rows drawn
// from a small shared table, the structure the effective-row η kernels
// produce. Only the cost values vary with deg — the solve itself stays
// O(M·N) — so the sweep tracks how cost structure, not size, moves the
// constructor and refinement.
func sparseEtaInstance(rng *rand.Rand, m, n, deg int) *Instance {
	rows := make([][]int64, 4*m)
	for i := range rows {
		rows[i] = make([]int64, m)
		for r := range rows[i] {
			rows[i][r] = rng.Int63n(6)
		}
	}
	flat := make([]int64, m*n)
	sizes := make([]int64, n)
	var total int64
	for j := 0; j < n; j++ {
		sizes[j] = 1 + int64(rng.Intn(9))
		total += sizes[j]
		col := flat[j*m : (j+1)*m]
		for k := 0; k < deg; k++ {
			w := 1 + rng.Int63n(3)
			row := rows[rng.Intn(len(rows))]
			for r := range col {
				col[r] += w * row[r]
			}
		}
	}
	caps := make([]int64, m)
	for i := range caps {
		caps[i] = int64(float64(total) * 1.3 / float64(m))
	}
	return &Instance{FlatCosts: flat, Sizes: sizes, Capacities: caps}
}

// BenchmarkGAPSolveSwap is the swap-heavy shape of the paper-table
// subproblems: N=600 items in M=16 bins, swap refinement capped at the
// solver's 3 passes. "eta" is the integral STEP 4 cost (η-shaped columns);
// "h" is the fractional STEP 6 direction built from it as h += η/denom
// over a few iterations — the path whose pruning carries a rounding margin.
func BenchmarkGAPSolveSwap(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	eta := sparseEtaInstance(rng, 16, 600, 12)
	h := make([]float64, len(eta.FlatCosts))
	for it := 0; it < 4; it++ {
		denom := 1 + 1e3*rng.Float64()
		for r, c := range eta.FlatCosts {
			h[r] += float64(c+rng.Int63n(3)) / denom
		}
	}
	opt := Options{Refine: RefineSwap, MaxRefinePasses: 3}
	for _, c := range []struct {
		name string
		in   *Instance
	}{
		{"eta", eta},
		{"h", &Instance{FlatCosts64: h, Sizes: eta.Sizes, Capacities: eta.Capacities}},
	} {
		b.Run(fmt.Sprintf("%s/n=%d/m=%d", c.name, c.in.N(), c.in.M()), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				if _, _, ok := Solve(context.Background(), c.in, opt); !ok {
					b.Fatal("infeasible")
				}
			}
		})
	}
}
