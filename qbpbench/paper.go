package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	partition "repro"
)

// The paper-tables workload: the 14 QBP solves of Tables II and III (seven
// circuits, timing constraints relaxed and enforced) at the paper's 100
// iterations from the shared FeasibleStart, single-threaded, repeated in
// whole rounds. The circuits and the shared start are the paper
// protocol's (start seed 0, as cmd/benchtables); the workload seed orders
// the solves within each round and seeds the solver's kicks. The start is
// fixed because the solve cost depends on it: starts from other seeds made
// a round up to 25% slower, and one of them took 5 s to find.
const (
	paperIterations    = 100 // the paper's budget
	feasibleStartIters = 40  // as cmd/benchtables
	paperStartSeed     = 0
)

type paperCase struct {
	name     string
	p        *partition.Problem
	start    partition.Assignment
	goldenWL int64
}

// paperSetup generates the seven circuits and their shared starts.
func paperSetup(tr *tracer) (cases []paperCase, genS, startS float64, err error) {
	ctx := context.Background()
	for _, spec := range partition.PaperCircuits() {
		g0 := time.Now()
		in, err := partition.NamedCircuit(spec.Name)
		if err != nil {
			return nil, 0, 0, err
		}
		g1 := time.Now()
		start, err := partition.FeasibleStart(ctx, in.Problem, paperStartSeed, feasibleStartIters)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: feasible start: %w", spec.Name, err)
		}
		s1 := time.Now()
		tr.add("gen", -1, -1, g0, g1)
		tr.add("qbp.feasible_start", -1, -1, g1, s1)
		genS += g1.Sub(g0).Seconds()
		startS += s1.Sub(g1).Seconds()
		cases = append(cases, paperCase{name: spec.Name, p: in.Problem, start: start, goldenWL: in.Problem.WireLength(in.Golden)})
	}
	return cases, genS, startS, nil
}

func paperTables(cfg config) (*result, *tracer, error) {
	ctx := context.Background()
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	var cases []paperCase
	var setups, gens, starts sample
	for rep := 0; rep < setupReps; rep++ {
		var g, s float64
		t0, t1, err := timed(func() (err error) {
			cases, g, s, err = paperSetup(tr)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, t1.Sub(t0).Seconds())
		gens, starts = append(gens, g), append(starts, s)
	}

	modes := []struct {
		name  string
		relax bool
	}{{"relaxed", true}, {"timed", false}}
	order := rand.New(rand.NewSource(cfg.seed))

	ops := newOpTimes()
	first := map[string]partition.Assignment{}
	wl := map[string]int64{}
	var goldenSum int64
	for _, c := range cases {
		goldenSum += 2 * c.goldenWL // once per mode
	}
	solveBy := map[string]keyed{"relaxed": {}, "timed": {}}
	phases := map[string]keyed{"setup": {}, "iter": {}, "polish": {}, "validate": {}}
	counts := map[string]partition.QBPSolveStats{}

	begin := time.Now()
	var end time.Time
	var roundTimes sample
	solves, op := 0, 0
	for round := 0; round < 2 || time.Since(begin).Seconds()+roundTimes.median()/2 <= cfg.seconds; round++ {
		r0 := time.Now()
		for _, k := range order.Perm(len(cases) * len(modes)) {
			c, m := cases[k/len(modes)], modes[k%len(modes)]
			key := c.name + "/" + m.name
			opts := partition.QBPOptions{
				Iterations:  paperIterations,
				Initial:     c.start,
				RelaxTiming: m.relax,
				Seed:        cfg.seed,
				Workers:     1,
			}
			res.attempted++
			op++
			var qr *partition.QBPResult
			t0, t1, err := timed(func() (err error) {
				qr, err = partition.SolveQBP(ctx, c.p, opts)
				return err
			})
			if err != nil {
				res.fail(cfg.log, "%s: %v", key, err)
				continue
			}
			v0 := time.Now()
			ok := checkAnswer(res, cfg, key, c.p, qr.Assignment, qr.WireLength, !m.relax, first)
			v1 := time.Now()
			if !ok {
				continue
			}
			if !m.relax && !qr.Feasible {
				res.mismatch(cfg.log, "%s: solver reported an infeasible result", key)
				continue
			}
			solves++
			wl[key] = qr.WireLength
			ops.add(key, false, t1.Sub(t0).Seconds())
			if !cfg.trace {
				continue
			}
			st := qr.Stats
			sp := tr.add("qbp.solve", -1, op, t0, t1)
			tr.seq(sp, op, t0, []string{"qbp.setup", "qbp.iterate", "qbp.polish"},
				[]time.Duration{st.SetupTime, st.IterTime, st.PolishTime})
			tr.add("validate", -1, op, v0, v1)
			solveBy[m.name][key] = append(solveBy[m.name][key], t1.Sub(t0).Seconds())
			phases["setup"][key] = append(phases["setup"][key], st.SetupTime.Seconds())
			phases["iter"][key] = append(phases["iter"][key], st.IterTime.Seconds())
			phases["polish"][key] = append(phases["polish"][key], st.PolishTime.Seconds())
			phases["validate"][key] = append(phases["validate"][key], v1.Sub(v0).Seconds())
			counts[key] = st
		}
		end = time.Now()
		roundTimes = append(roundTimes, end.Sub(r0).Seconds())
	}

	res.set("setup_s", setups.median(), len(setups))
	res.set("solves_per_s", float64(solves)/end.Sub(begin).Seconds(), solves)
	setQuality(res, ops, wl, len(cases)*len(modes), goldenSum, solves)
	res.set("peak_rss_mb", peakRSSMB(), 1)

	if cfg.trace {
		res.set("gen.generate_s", gens.median(), len(gens))
		res.set("qbp.feasible_start_s", starts.median(), len(starts))
		for _, m := range modes {
			v, n := solveBy[m.name].sumOfMedians()
			res.set("qbp.solve_s."+m.name, v, n)
		}
		iterS, n := phases["iter"].sumOfMedians()
		res.set("qbp.iter_s", iterS, n)
		v, n := phases["setup"].sumOfMedians()
		res.set("qbp.setup_s", v, n)
		v, n = phases["polish"].sumOfMedians()
		res.set("qbp.polish_s", v, n)
		v, n = phases["validate"].sumOfMedians()
		res.set("validate.check_s", v, n)
		setCounts(res, counts)
		if it := res.values["qbp.iterations"].v; it > 0 {
			res.set("qbp.iter_ms", 1000*iterS/it, n)
		}
		// Every solve is traced: its spans are built after the call from the
		// phase timers it returns, so tracing adds no work to a solve.
		res.values["trace.overhead_frac"] = value{note: "spans built after each solve; no work added to a solve"}
	}
	return res, tr, nil
}

// setCounts reports the solver's work counters summed over one solve per
// identity: exact, and identical on every run with the same seed.
func setCounts(res *result, counts map[string]partition.QBPSolveStats) {
	var it, rs, ef, ei int
	for _, st := range counts {
		it += st.Iterations
		rs += st.Restarts
		ef += st.EtaFull
		ei += st.EtaIncremental
	}
	n := len(counts)
	res.set("qbp.iterations", float64(it), n)
	res.set("qbp.restarts", float64(rs), n)
	res.set("qbp.eta_full", float64(ef), n)
	res.set("qbp.eta_incremental", float64(ei), n)
}

// setQuality reports latency_s_mean and wl_vs_golden (the summed final
// wire length over the summed golden wire length) for a closed-loop
// workload, but only when each of its want identities has a checked answer.
// An identity that failed on every repetition would otherwise drop out and
// make both figures read better; left unset, they make the run fail.
func setQuality(res *result, ops *opTimes, wl map[string]int64, want int, golden int64, solves int) {
	mean, n := ops.meanOfMedians()
	if n != want || len(wl) != want || golden == 0 {
		return
	}
	var total int64
	for _, v := range wl {
		total += v
	}
	res.set("latency_s_mean", mean, solves)
	res.set("wl_vs_golden", float64(total)/float64(golden), len(wl))
}

// checkAnswer re-checks an assignment with the independent validator:
// capacity always, timing when enforced, the wire length recomputed, and a
// repeated same-seed solve of the same identity must return the identical
// assignment. It counts a miss as a wrong, failed operation.
func checkAnswer(res *result, cfg config, key string, p *partition.Problem, a partition.Assignment, wl int64, timing bool, first map[string]partition.Assignment) bool {
	rep, err := partition.Validate(p, a)
	switch {
	case err != nil:
		res.mismatch(cfg.log, "%s: unusable assignment: %v", key, err)
	case rep.OverloadedCount > 0:
		res.mismatch(cfg.log, "%s: %d partitions over capacity", key, rep.OverloadedCount)
	case timing && len(rep.TimingViolations) > 0:
		res.mismatch(cfg.log, "%s: %d timing violations", key, len(rep.TimingViolations))
	case rep.WireLength != wl:
		res.mismatch(cfg.log, "%s: reported wire length %d, recomputed %d", key, wl, rep.WireLength)
	default:
		if prev, ok := first[key]; ok && !slices.Equal(prev, a) {
			res.mismatch(cfg.log, "%s: same-seed repeat returned a different assignment", key)
			return false
		}
		first[key] = append(partition.Assignment(nil), a...)
		return true
	}
	return false
}
