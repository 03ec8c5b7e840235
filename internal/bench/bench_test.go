package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/qbp"
)

// TestFeasibleStartsAllCircuits: the paper's initial-solution protocol must
// succeed quickly on every circuit ("this will generate an initial feasible
// solution in a few iterations").
func TestFeasibleStartsAllCircuits(t *testing.T) {
	for _, s := range gen.Paper {
		in := gen.MustNamed(s.Name)
		a, err := qbp.FeasibleStart(context.Background(), in.Problem, 0, 40)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := in.Problem.CheckFeasible(a); err != nil {
			t.Fatalf("%s: start infeasible: %v", s.Name, err)
		}
	}
}

func TestWriteTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTableI(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range gen.Paper {
		if !strings.Contains(out, s.Name) {
			t.Fatalf("table I missing %s:\n%s", s.Name, out)
		}
	}
	if !strings.Contains(out, "8200") || !strings.Contains(out, "11545") {
		t.Fatalf("table I missing published statistics:\n%s", out)
	}
}

// TestTableShape runs a two-circuit subset of Tables II and III and asserts
// the qualitative findings the paper reports: every method improves on the
// shared start, results are feasible, and under timing constraints QBP
// beats GFM (whose admissible moves dry up first).
func TestTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment subset takes seconds; skipped with -short")
	}
	for _, timing := range []bool{false, true} {
		rows, err := Run(Config{Timing: timing, Circuits: []string{"ckta", "ckte"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			for name, m := range map[string]MethodResult{"QBP": r.QBP, "GFM": r.GFM, "GKL": r.GKL} {
				if !m.Feasible {
					t.Errorf("timing=%v %s: %s result infeasible", timing, r.Circuit, name)
				}
				if m.WireLength >= r.Start {
					t.Errorf("timing=%v %s: %s did not improve (%d >= %d)", timing, r.Circuit, name, m.WireLength, r.Start)
				}
				if m.Improve <= 0 {
					t.Errorf("timing=%v %s: %s non-positive improvement", timing, r.Circuit, name)
				}
			}
			if timing && r.QBP.WireLength >= r.GFM.WireLength {
				t.Errorf("%s: QBP (%d) should beat GFM (%d) under timing constraints",
					r.Circuit, r.QBP.WireLength, r.GFM.WireLength)
			}
		}
	}
}

// TestFullTables regenerates Tables II and III on all seven circuits (the
// complete §5 experiment). It prints the tables and checks the aggregate
// shape: QBP delivers the best average quality and GKL the most CPU. The
// paper's GFM < QBP CPU ranking is not asserted: it describes the 1993
// implementations, and the bound-pruned GAP refinement makes QBP's solves
// as fast as GFM's here (EXPERIMENTS.md).
func TestFullTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables take ~30s; skipped with -short")
	}
	for _, timing := range []bool{false, true} {
		rows, err := Run(Config{Timing: timing})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		FormatRows(&buf, rows, timing)
		t.Logf("\n%s", buf.String())

		var qbpPct, gfmPct, gklPct float64
		var qbpCPU, gfmCPU, gklCPU float64
		for _, r := range rows {
			qbpPct += r.QBP.Improve
			gfmPct += r.GFM.Improve
			gklPct += r.GKL.Improve
			qbpCPU += r.QBP.CPU.Seconds()
			gfmCPU += r.GFM.CPU.Seconds()
			gklCPU += r.GKL.CPU.Seconds()
			if !r.QBP.Feasible || !r.GFM.Feasible || !r.GKL.Feasible {
				t.Errorf("timing=%v %s: infeasible result", timing, r.Circuit)
			}
		}
		n := float64(len(rows))
		if qbpPct/n <= gfmPct/n || qbpPct/n <= gklPct/n {
			t.Errorf("timing=%v: QBP mean improvement %.1f%% should exceed GFM %.1f%% and GKL %.1f%%",
				timing, qbpPct/n, gfmPct/n, gklPct/n)
		}
		// The detector's overhead is not uniform across the three
		// algorithms, so the CPU-shape claim only holds uninstrumented.
		t.Logf("timing=%v: CPU GFM %.1fs, QBP %.1fs, GKL %.1fs", timing, gfmCPU, qbpCPU, gklCPU)
		if !raceEnabled && qbpCPU >= gklCPU {
			t.Errorf("timing=%v: CPU ordering QBP (%.1fs) < GKL (%.1fs) violated",
				timing, qbpCPU, gklCPU)
		}
	}
}

func TestRunUnknownCircuit(t *testing.T) {
	if _, err := Run(Config{Circuits: []string{"nope"}}); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}
