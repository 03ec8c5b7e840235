package bench

import (
	"context"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/qbp"
)

// paperWitness pins the final wire length and an assignment hash of each of
// the 14 Table II/III QBP solves under the benchmark protocol (100
// iterations, one worker, solver seed 1, from FeasibleStart(seed 0, 40)).
// Speedups to the solver must leave every entry bit-identical; a change
// that alters the search order must update this table deliberately and say
// why.
var paperWitness = map[string]struct {
	wl   int64
	hash uint64
}{
	"ckta/relaxed": {6024, 0xae4fc773bb8042fc},
	"ckta/timed":   {5966, 0xb17787934558b5ff},
	"cktb/relaxed": {2641, 0x3188a61a1cb3442e},
	"cktb/timed":   {3107, 0xbf2cba0098265244},
	"cktc/relaxed": {8575, 0x45618999388193fb},
	"cktc/timed":   {9320, 0x65971c8207a39d19},
	"cktd/relaxed": {5363, 0x8df415982196972e},
	"cktd/timed":   {6345, 0xa620f29ae9f6437a},
	"ckte/relaxed": {2829, 0x8cf49ee3bb0516ef},
	"ckte/timed":   {2938, 0xb17eeb3dc4b92aaa},
	"cktf/relaxed": {3720, 0x1b56701cc7070240},
	"cktf/timed":   {4351, 0xc4b446718b7516eb},
	"cktg/relaxed": {2750, 0x83dff028373d855f},
	"cktg/timed":   {3128, 0xeac5a99508c141ac},
}

// assignHash is FNV-64a over the decimal rendering of an assignment.
func assignHash(a []int) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, i := range a {
		buf = strconv.AppendInt(buf[:0], int64(i), 10)
		buf = append(buf, ',')
		h.Write(buf)
	}
	return h.Sum64()
}

func TestPaperTableWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("14 full QBP solves take seconds; skipped with -short")
	}
	if raceEnabled {
		// The solves are single-goroutine (Workers: 1), so the detector
		// has nothing to check and only multiplies their time.
		t.Skip("single-goroutine determinism check; skipped under -race")
	}
	ctx := context.Background()
	for _, s := range gen.Paper {
		in := gen.MustNamed(s.Name)
		start, err := qbp.FeasibleStart(ctx, in.Problem, 0, 40)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, relax := range []bool{true, false} {
			key := s.Name + "/timed"
			if relax {
				key = s.Name + "/relaxed"
			}
			res, err := qbp.Solve(ctx, in.Problem, qbp.Options{
				Iterations:  100,
				Initial:     start,
				RelaxTiming: relax,
				Seed:        1,
				Workers:     1,
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := assignHash(res.Assignment)
			want, ok := paperWitness[key]
			if !ok {
				t.Errorf("%s: no witness entry; got {%d, %#x}", key, res.WireLength, got)
				continue
			}
			if res.WireLength != want.wl || got != want.hash {
				t.Errorf("%s: wire length %d hash %#x, witness %d %#x", key, res.WireLength, got, want.wl, want.hash)
			}
		}
	}
}
