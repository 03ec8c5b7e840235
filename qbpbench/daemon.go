package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	partition "repro"
)

// The daemon-open-loop workload: a qbpartd subprocess with one solve
// worker takes an open-loop schedule of small seeded circuits at a fixed
// rate that keeps the worker about 40% busy. Every instance is sent
// twice, once as a text body and once as a binary body, at independent
// times; both answers must be identical. The instances use the generator's
// default capacity slack, at which qbp fails on a few of them (README.md,
// "Known defect"); those jobs count as failed operations.
const (
	daemonRate       = 4.0 // jobs per second
	daemonIterations = 50
	// daemonMinJobs keeps 100 checked jobs, the fewest a p90 may come from,
	// when a few jobs fail: a shorter run still sends this many.
	daemonMinJobs = 120
	// latencyLimit is goodput's limit: jobs done within this of their due
	// time count. It sits far above the measured p90 (about 0.2 s), so
	// goodput drops only when the queue saturates or jobs fail.
	latencyLimit = 1500 * time.Millisecond
	lagLimit     = 100 * time.Millisecond // a run whose generator p90 lateness exceeds this is invalid
	drainLimit   = 60 * time.Second
)

// daemonSizes are the instance sizes, used equally often.
var daemonSizes = []int{120, 145, 170, 195, 220, 245}

// plannedJob is one entry of the arrival schedule.
type plannedJob struct {
	due    time.Duration // offset from the schedule's start
	inst   int           // instance index; every instance appears twice
	binary bool          // body format
}

// arrivals returns the seeded open-loop schedule for a run of the given
// length: n = rate·seconds jobs, but at least daemonMinJobs, rounded up to
// even, in pairs, one pair due in the middle of each 2/rate slot. The second job of a pair always
// queues behind the first, so every run exercises the queue the same way.
// The seed decides which instance and format each job carries; instance i
// is sent once in each format, in two slots drawn independently. Random
// arrival times made the mean latency vary by a quarter between seeds,
// because their bursts queue up more as the host slows (README.md).
func arrivals(seed int64, seconds float64) []plannedJob {
	n := 2 * int(math.Ceil(max(daemonRate*seconds, daemonMinJobs)/2))
	slot := 2 / daemonRate
	jobs := make([]plannedJob, n)
	for k, which := range rand.New(rand.NewSource(seed)).Perm(n) {
		due := time.Duration((float64(k/2) + 0.5) * slot * float64(time.Second))
		jobs[k] = plannedJob{due: due, inst: which / 2, binary: which%2 == 1}
	}
	return jobs
}

// daemonInstance is one generated circuit with both request bodies.
type daemonInstance struct {
	p            *partition.Problem
	text, binary []byte
	goldenWL     int64
}

// daemonInputs generates the instances the schedule refers to.
func daemonInputs(seed int64, jobs []plannedJob) ([]daemonInstance, error) {
	count := 0
	for _, j := range jobs {
		count = max(count, j.inst+1)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]daemonInstance, count)
	for i := range out {
		n := daemonSizes[i%len(daemonSizes)]
		in, err := partition.GenerateCircuit(partition.GenerateParams{
			Spec: partition.CircuitSpec{
				Name:              "job" + strconv.Itoa(i),
				Components:        n,
				Wires:             int64(6 * n),
				TimingConstraints: 2 * n,
				Seed:              rng.Int63(),
			},
		})
		if err != nil {
			return nil, err
		}
		var text, bin bytes.Buffer
		if err := partition.WriteProblem(&text, in.Problem); err != nil {
			return nil, err
		}
		if err := partition.WriteProblemBinary(&bin, in.Problem); err != nil {
			return nil, err
		}
		out[i] = daemonInstance{p: in.Problem, text: text.Bytes(), binary: bin.Bytes(), goldenWL: in.Problem.WireLength(in.Golden)}
	}
	return out, nil
}

// daemon is a running qbpartd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon starts qbpartd with one solve worker on a free local port and
// waits until /healthz answers.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no qbpartd binary given (-qbpartd)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-queue", "1024")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("qbpartd exited before becoming healthy: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	_ = d.stop()
	return nil, errors.New("qbpartd did not become healthy within 10s")
}

// stop drains the daemon with SIGTERM, waits for it to exit, and returns
// its peak resident set size in MiB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// jobRecord is what the load generator saw of one job.
type jobRecord struct {
	plannedJob
	sent, acked time.Time // POST round trip
	status      int
	id          string
	queueDepth  int
	err         error
	st          jobStatus
}

type jobStatus struct {
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
	Error       string `json:"error"`
	Result      *struct {
		Assignment []int `json:"assignment"`
		WireLength int64 `json:"wire_length"`
		Feasible   bool  `json:"feasible"`
		Stopped    bool  `json:"stopped"`
		Stats      *struct {
			Iterations     int `json:"iterations"`
			Restarts       int `json:"restarts"`
			EtaFull        int `json:"eta_full"`
			EtaIncremental int `json:"eta_incremental"`
		} `json:"stats"`
	} `json:"result"`
}

func daemonOpenLoop(cfg config) (*result, *tracer, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	conns := min(2, runtime.NumCPU())
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()

	plan := arrivals(cfg.seed, cfg.seconds)
	var insts []daemonInstance
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups, gens sample
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		var g time.Time
		t0, t1, err := timed(func() (err error) {
			if insts, err = daemonInputs(cfg.seed, plan); err != nil {
				return err
			}
			g = time.Now()
			d, err = startDaemon(cfg.qbpartd, client)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		tr.add("gen", -1, -1, t0, g)
		tr.add("qbpartd.start", -1, -1, g, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
		gens = append(gens, g.Sub(t0).Seconds())
	}

	recs := make([]jobRecord, len(plan))
	runtime.GC()
	start := time.Now().Add(50 * time.Millisecond)
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				submit(client, d.base, &recs[k], insts[recs[k].inst], cfg.seed)
			}
		}()
	}
	for k, j := range plan {
		recs[k].plannedJob = j
		time.Sleep(time.Until(start.Add(j.due)))
		work <- k
	}
	close(work)
	wg.Wait()

	drainBy := time.Now().Add(drainLimit)
	for k := range recs {
		if recs[k].err == nil {
			recs[k].err = poll(client, d.base, &recs[k], drainBy)
		}
	}
	res.set("peak_rss_mb", d.stop(), 1)
	d = nil

	evaluateDaemon(cfg, res, tr, recs, insts, start)
	res.set("setup_s", setups.median(), len(setups))
	if cfg.trace {
		res.set("gen.generate_s", gens.median(), len(gens))
	}
	return res, tr, nil
}

// submit POSTs one job and records the round trip and the admission answer.
func submit(client *http.Client, base string, rec *jobRecord, inst daemonInstance, seed int64) {
	body := inst.text
	if rec.binary {
		body = inst.binary
	}
	url := fmt.Sprintf("%s/jobs?iterations=%d&seed=%d", base, daemonIterations, seed+int64(rec.inst))
	rec.sent = time.Now()
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		rec.acked, rec.err = time.Now(), err
		return
	}
	defer resp.Body.Close()
	var ack struct {
		ID         string `json:"id"`
		QueueDepth int    `json:"queue_depth"`
		Error      string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&ack)
	rec.acked, rec.status = time.Now(), resp.StatusCode
	switch {
	case resp.StatusCode != http.StatusAccepted:
		rec.err = fmt.Errorf("refused with %d: %s", resp.StatusCode, ack.Error)
	case derr != nil:
		rec.err = fmt.Errorf("reading admission answer: %w", derr)
	default:
		rec.id, rec.queueDepth = ack.ID, ack.QueueDepth
	}
}

// poll reads the job's status until it is terminal.
func poll(client *http.Client, base string, rec *jobRecord, by time.Time) error {
	for {
		resp, err := client.Get(base + "/jobs/" + rec.id)
		if err != nil {
			return err
		}
		rec.st = jobStatus{}
		derr := json.NewDecoder(resp.Body).Decode(&rec.st)
		resp.Body.Close()
		if derr != nil {
			return fmt.Errorf("reading job status: %w", derr)
		}
		switch rec.st.State {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s: %s", rec.st.State, rec.st.Error)
		}
		if time.Now().After(by) {
			return fmt.Errorf("job %s still %s after the drain limit", rec.id, rec.st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// evaluateDaemon checks every job's answer and computes the metrics.
func evaluateDaemon(cfg config, res *result, tr *tracer, recs []jobRecord, insts []daemonInstance, start time.Time) {
	ops := newOpTimes()
	first := map[string]partition.Assignment{}
	var lat, lag, wait, solve, submitText, submitBin, check sample
	var wl, golden int64
	good, depth, rejected := 0, 0, 0
	counts := map[string]partition.QBPSolveStats{}
	var last time.Time
	for k := range recs {
		rec := &recs[k]
		res.attempted++
		due := start.Add(rec.due)
		lag = append(lag, rec.sent.Sub(due).Seconds())
		if rec.status != 0 && rec.status != http.StatusAccepted {
			rejected++
		}
		if rec.err != nil {
			res.fail(cfg.log, "job %d: %v", k, rec.err)
			continue
		}
		depth = max(depth, rec.queueDepth)
		key := strconv.Itoa(rec.inst)
		r := rec.st.Result
		submitted, e1 := time.Parse(time.RFC3339Nano, rec.st.SubmittedAt)
		started, e2 := time.Parse(time.RFC3339Nano, rec.st.StartedAt)
		finished, e3 := time.Parse(time.RFC3339Nano, rec.st.FinishedAt)
		if r == nil || errors.Join(e1, e2, e3) != nil {
			res.mismatch(cfg.log, "job %d: incomplete status (%v)", k, errors.Join(e1, e2, e3))
			continue
		}
		inst := insts[rec.inst]
		v0 := time.Now()
		ok := checkAnswer(res, cfg, "instance "+key, inst.p, r.Assignment, r.WireLength, true, first)
		v1 := time.Now()
		if !ok {
			continue
		}
		if !r.Feasible || r.Stopped {
			res.mismatch(cfg.log, "job %d: feasible=%v stopped=%v", k, r.Feasible, r.Stopped)
			continue
		}
		l := finished.Sub(due)
		if l <= latencyLimit {
			good++
		}
		if finished.After(last) {
			last = finished
		}
		ops.add(key, false, l.Seconds())
		lat = append(lat, l.Seconds())
		wait = append(wait, started.Sub(submitted).Seconds())
		solve = append(solve, finished.Sub(started).Seconds())
		wl += r.WireLength
		golden += inst.goldenWL
		if s := r.Stats; s != nil {
			counts[strconv.Itoa(k)] = partition.QBPSolveStats{Iterations: s.Iterations, Restarts: s.Restarts, EtaFull: s.EtaFull, EtaIncremental: s.EtaIncremental}
		}
		if !cfg.trace {
			continue
		}
		if rec.binary {
			submitBin = append(submitBin, rec.acked.Sub(rec.sent).Seconds())
		} else {
			submitText = append(submitText, rec.acked.Sub(rec.sent).Seconds())
		}
		check = append(check, v1.Sub(v0).Seconds())
		root := tr.add("job", -1, k, due, finished)
		tr.add("loadgen.late", root, k, due, rec.sent)
		tr.add("qbpartd.submit", root, k, rec.sent, rec.acked)
		tr.add("jobqueue.wait", root, k, submitted, started)
		tr.add("jobqueue.solve", root, k, started, finished)
		tr.add("validate", -1, k, v0, v1)
	}

	// With no checked job the end-to-end metrics stay unset, and the run
	// fails instead of reading as fast. Jobs that failed drop out of the
	// latency and wire-length figures and count in res.failed.
	if len(lat) > 0 {
		mean, _ := ops.meanOfMedians()
		res.set("latency_s_mean", mean, len(lat))
		res.set("wl_vs_golden", float64(wl)/float64(golden), len(lat))
		if window := last.Sub(start.Add(recs[0].due)).Seconds(); window > 0 {
			res.set("solves_per_s", float64(good)/window, good)
		}
	}
	if p90, _ := lag.percentile(90); p90 > lagLimit.Seconds() {
		res.invalid = fmt.Sprintf("load generator p90 lateness %.3fs exceeds %v", p90, lagLimit)
	}
	if !cfg.trace {
		return
	}
	res.setPct("job_latency_p50_s", lat, 50)
	res.setPct("job_latency_p90_s", lat, 90)
	res.setPct("jobqueue.wait_s_p50", wait, 50)
	res.setPct("jobqueue.wait_s_p90", wait, 90)
	res.setPct("jobqueue.solve_s_p50", solve, 50)
	res.setPct("jobqueue.solve_s_p90", solve, 90)
	res.setPct("qbpartd.submit_s_p50.text", submitText, 50)
	res.setPct("qbpartd.submit_s_p50.binary", submitBin, 50)
	res.setPct("loadgen.lag_s_p90", lag, 90)
	res.set("jobqueue.queue_depth_max", float64(depth), len(recs))
	res.set("jobqueue.rejected", float64(rejected), len(recs))
	res.set("validate.check_s", check.median(), len(check))
	setCounts(res, counts)
	// Every job is traced: its spans are built here, after the run, from
	// timestamps every run records, so tracing adds no work to a job.
	res.values["trace.overhead_frac"] = value{note: "spans built after the run; no work added to a job"}
}
