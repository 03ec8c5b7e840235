package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	partition "repro"
)

// The vcycle-100k workload: one multilevel V-cycle per operation on
// N=10⁵ instances (4·10⁵ wires, 10⁴ timing constraints each), repeated in
// rounds over vcInstances instances so that one instance's difficulty does
// not set the figure. The instances are fixed (generator seeds 0 to
// vcInstances−1) and the workload seed seeds the coarse solves: instances
// from other generator seeds differ by ±10% in V-cycle time, so the figure
// moved with the seed. The coarse solve is 30 Burkard
// iterations from one start, leaving a processor to the runtime; levels up
// to 2048 components get boundary GFM refinement, larger ones the greedy
// sweep.
const (
	vcN             = 100_000
	vcInstances     = 3
	vcIterations    = 30
	vcCoarsenTarget = 512
	vcGFMMaxN       = 2048
	vcSetupReps     = 3
)

type vcInstance struct {
	p        *partition.Problem
	goldenWL int64
}

func vcycleSetup() ([]vcInstance, error) {
	out := make([]vcInstance, vcInstances)
	for i := range out {
		in, err := partition.GenerateCircuit(partition.GenerateParams{Spec: partition.CircuitSpec{
			Name:              fmt.Sprintf("vcycle-100k-%d", i),
			Components:        vcN,
			Wires:             4 * vcN,
			TimingConstraints: vcN / 10,
			Seed:              int64(i),
		}})
		if err != nil {
			return nil, err
		}
		out[i] = vcInstance{p: in.Problem, goldenWL: in.Problem.WireLength(in.Golden)}
	}
	return out, nil
}

// levelMark is one OnLevel callback: a level finished at a time.
type levelMark struct {
	n  int
	at time.Time
}

func vcycle100k(cfg config) (*result, *tracer, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	var insts []vcInstance
	var setups sample
	for rep := 0; rep < vcSetupReps; rep++ {
		t0, t1, err := timed(func() (err error) {
			insts, err = vcycleSetup()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		tr.add("gen", -1, -1, t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	var golden int64
	for _, in := range insts {
		golden += in.goldenWL
	}

	run := &vcRun{cfg: cfg, res: res, tr: tr, ops: newOpTimes(), first: map[string]partition.Assignment{}, wl: map[string]int64{}}
	var roundTimes sample
	begin := time.Now()
	var end time.Time
	for round := 0; round < 2 || time.Since(begin).Seconds()+roundTimes.median()/2 <= cfg.seconds; round++ {
		r0 := time.Now()
		for i, in := range insts {
			run.op(in.p, fmt.Sprintf("instance %d", i), cfg.trace && (round+i)%2 == 1)
		}
		end = time.Now()
		roundTimes = append(roundTimes, end.Sub(r0).Seconds())
	}

	res.set("setup_s", setups.median(), len(setups))
	res.set("solves_per_s", float64(run.solves)/end.Sub(begin).Seconds(), run.solves)
	setQuality(res, run.ops, run.wl, len(insts), golden, run.solves)
	res.set("peak_rss_mb", peakRSSMB(), 1)

	if cfg.trace {
		res.set("gen.generate_s", setups.median(), len(setups))
		for _, name := range []string{"multilevel.coarsen", "multilevel.coarse_solve", "multilevel.refine_gfm", "multilevel.refine_sweep", "validate"} {
			v, n := run.layer[name].sumOfMedians()
			res.set(strings.Replace(name+"_s", "validate_s", "validate.check_s", 1), v, n)
		}
		run.setCounts()
		o, n := run.ops.overhead()
		res.set("trace.overhead_frac", o, n)
	}
	return res, tr, nil
}

// vcRun is the state of one vcycle-100k run.
type vcRun struct {
	cfg    config
	res    *result
	tr     *tracer
	ops    *opTimes
	first  map[string]partition.Assignment
	wl     map[string]int64
	solves int
	n      int                                    // operations so far
	traced map[string]*partition.MultilevelResult // one traced result per instance
	layer  map[string]keyed                       // span seconds per traced operation, by span name and instance
}

// op runs and checks one V-cycle; traced ones record spans from the
// OnLevel callbacks and the coarse solve's progress timestamps.
func (r *vcRun) op(p *partition.Problem, key string, traced bool) {
	op := r.n
	r.n++
	opts := partition.MultilevelOptions{
		Coarse: partition.MultiStartOptions{
			Base:    partition.QBPOptions{Iterations: vcIterations, Seed: r.cfg.seed},
			Starts:  1,
			Workers: 1,
		},
		CoarsenTarget: vcCoarsenTarget,
		GFMMaxN:       vcGFMMaxN,
	}
	var mu sync.Mutex
	var coarseStart time.Time
	var marks []levelMark
	if traced {
		// Progress.Elapsed dates the coarse solve's beginning, which
		// splits coarsening from the coarse solve.
		opts.Coarse.Base.OnProgress = func(pr partition.QBPProgress) {
			at := time.Now().Add(-pr.Elapsed)
			mu.Lock()
			if coarseStart.IsZero() || at.Before(coarseStart) {
				coarseStart = at
			}
			mu.Unlock()
		}
		opts.OnLevel = func(ls partition.MultilevelLevelStat) {
			marks = append(marks, levelMark{n: ls.N, at: time.Now()})
		}
	}
	r.res.attempted++
	var mr *partition.MultilevelResult
	t0, t1, err := timed(func() (err error) {
		mr, err = partition.SolveMultilevel(context.Background(), p, opts)
		return err
	})
	if err != nil {
		r.res.fail(r.cfg.log, "%s: v-cycle: %v", key, err)
		return
	}
	v0 := time.Now()
	ok := checkAnswer(r.res, r.cfg, key, p, mr.Assignment, mr.WireLength, true, r.first)
	v1 := time.Now()
	if !ok {
		return
	}
	if !mr.Feasible || mr.Stopped {
		r.res.mismatch(r.cfg.log, "%s: v-cycle feasible=%v stopped=%v", key, mr.Feasible, mr.Stopped)
		return
	}
	r.solves++
	r.wl[key] = mr.WireLength
	r.ops.add(key, traced, t1.Sub(t0).Seconds())
	if !traced {
		return
	}
	if r.traced == nil {
		r.traced = map[string]*partition.MultilevelResult{}
		r.layer = map[string]keyed{}
	}
	r.traced[key] = mr
	first := len(r.tr.spans)
	root := r.tr.add("multilevel.solve", -1, op, t0, t1)
	r.tr.add("validate", -1, op, v0, v1)
	defer func() {
		perName := map[string]float64{"multilevel.refine_gfm": 0, "multilevel.refine_sweep": 0}
		for _, sp := range r.tr.spans[first:] {
			perName[sp.Name] += sp.seconds()
		}
		for name, v := range perName {
			if r.layer[name] == nil {
				r.layer[name] = keyed{}
			}
			r.layer[name][key] = append(r.layer[name][key], v)
		}
	}()
	if len(marks) == 0 {
		return
	}
	if coarseStart.IsZero() || coarseStart.Before(t0) {
		coarseStart = t0
	}
	r.tr.add("multilevel.coarsen", root, op, t0, coarseStart)
	cs := r.tr.add("multilevel.coarse_solve", root, op, coarseStart, marks[0].at)
	st := mr.Coarse.Stats
	r.tr.seq(cs, op, coarseStart, []string{"qbp.setup", "qbp.iterate", "qbp.polish"},
		[]time.Duration{st.SetupTime, st.IterTime, st.PolishTime})
	for k := 1; k < len(marks); k++ {
		name := "multilevel.refine_sweep"
		if marks[k].n <= vcGFMMaxN {
			name = "multilevel.refine_gfm"
		}
		r.tr.add(name, root, op, marks[k-1].at, marks[k].at)
	}
}

// setCounts reports the exact counts and the coarse solve's phase times,
// summed over one V-cycle per instance: one round.
func (r *vcRun) setCounts() {
	levels, coarsest, moves := 0, 0, 0
	counts := map[string]partition.QBPSolveStats{}
	var setup, iter, polish float64
	for _, key := range sortedKeys(r.traced) {
		mr := r.traced[key]
		levels += len(mr.Levels)
		coarsest += mr.Levels[len(mr.Levels)-1].N
		for _, l := range mr.Levels {
			moves += l.Moves
		}
		st := mr.Coarse.Stats
		counts[key] = st
		setup += st.SetupTime.Seconds()
		iter += st.IterTime.Seconds()
		polish += st.PolishTime.Seconds()
	}
	n := len(r.traced)
	r.res.set("multilevel.levels", float64(levels), n)
	r.res.set("multilevel.coarsest_n", float64(coarsest), n)
	r.res.set("multilevel.moves", float64(moves), n)
	setCounts(r.res, counts)
	if n == 0 {
		return
	}
	r.res.set("qbp.setup_s", setup, n)
	r.res.set("qbp.iter_s", iter, n)
	r.res.set("qbp.polish_s", polish, n)
	if it := r.res.values["qbp.iterations"].v; it > 0 {
		r.res.set("qbp.iter_ms", 1000*iter/it, n)
	}
}
