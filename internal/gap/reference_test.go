package gap

import (
	"math"

	"repro/internal/bitset"
)

// The unpruned refinement sweeps, kept verbatim as the exactness oracle for
// the bound-pruned refiner: every candidate the pruned sweeps skip must be
// one these reject, so both must leave identical assignments and remaining
// capacities after every pass.

func refShiftSweep[T number](v *view[T], assign []int, remaining []int64) bool {
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

func refSwapSweep[T number](v *view[T], assign []int, remaining []int64) bool {
	n := v.n()
	improved := false
	for j1 := 0; j1 < n; j1++ {
		i1 := assign[j1]
		s1 := v.sizes[j1]
		col1 := v.col(j1)
		for j2 := j1 + 1; j2 < n; j2++ {
			i2 := assign[j2]
			if i1 == i2 {
				continue
			}
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
				i1 = assign[j1]
				s1 = v.sizes[j1]
				improved = true
			}
		}
	}
	return improved
}

func refEject[T number](v *view[T], assign []int, remaining []int64) bool {
	m, n := v.m, v.n()
	members := bitset.NewMembership(m, n)
	members.Build(assign)
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
				continue
			}
			bestDelta := math.Inf(1)
			bestK, bestB := -1, -1
			bin := members.Part(i)
			for k := bin.NextSet(0); k < n; k = bin.NextSet(k + 1) {
				sk := v.sizes[k]
				if remaining[i]+sk < sj {
					continue
				}
				colK := v.col(k)
				for b := 0; b < m; b++ {
					room := remaining[b]
					if b == s {
						room += sj
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
				remaining[i] += v.sizes[bestK]
				remaining[bestB] -= v.sizes[bestK]
				assign[bestK] = bestB
				remaining[s] += sj
				remaining[i] -= sj
				assign[j] = i
				members.Move(bestK, i, bestB)
				members.Move(j, s, i)
				moved = true
				break
			}
		}
	}
	return moved
}

// refRefine is the unpruned refine driver.
func refRefine[T number](v *view[T], assign []int, opt Options) {
	passes := opt.MaxRefinePasses
	if passes <= 0 {
		passes = 50
	}
	if opt.Refine == RefineNone {
		return
	}
	remaining := append([]int64(nil), v.caps...)
	for j, i := range assign {
		remaining[i] -= v.sizes[j]
	}
	for pass := 0; pass < passes; pass++ {
		for k := 0; k < 200; k++ {
			if !refShiftSweep(v, assign, remaining) {
				break
			}
		}
		if opt.Refine < RefineSwap {
			return
		}
		improved := refSwapSweep(v, assign, remaining)
		if !improved && refEject(v, assign, remaining) {
			improved = true
		}
		if !improved {
			return
		}
	}
}
