package qbp

import (
	"context"
	"testing"

	"repro/internal/gen"
)

// TestGAPFallbackAnswersDeadEnd: on this small slack-1.10 circuit the MTHG
// constructor dead-ends in STEP 4/6 from the seed-2 start. The subproblem
// is still feasible (the current iterate lies in S), so the solve must
// answer from the iterate rather than fail, count the fallbacks, and return
// a checked feasible result.
func TestGAPFallbackAnswersDeadEnd(t *testing.T) {
	in, err := gen.Generate(gen.Params{Spec: gen.Spec{
		Name: "custom-2100", Components: 100, Wires: 600, TimingConstraints: 200, Seed: 2100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := in.Problem
	ctx := context.Background()
	start, err := FeasibleStart(ctx, p, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(ctx, p, Options{Iterations: 50, Initial: start, Seed: 2, Workers: 1})
	if err != nil {
		t.Fatalf("solve failed: %v", err)
	}
	if res.Stats.GAPFallbacks == 0 {
		t.Fatal("expected the dead-end subproblems to be counted as GAP fallbacks")
	}
	if err := p.CheckFeasible(res.Assignment); err != nil {
		t.Fatalf("fallback solve returned an infeasible answer: %v", err)
	}
	if got := p.WireLength(res.Assignment); got != res.WireLength || got >= p.WireLength(start) {
		t.Fatalf("wire length %d (reported %d) does not improve on the start's %d", got, res.WireLength, p.WireLength(start))
	}
}
