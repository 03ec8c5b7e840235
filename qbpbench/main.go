// Command qbpbench is the repository's end-to-end benchmark. It drives the
// public entry points of package repro (and the qbpartd daemon as a
// subprocess) on one named workload, checks every answer, and prints its
// metrics: the end-to-end ones untraced, the per-layer ones with -trace 1.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash qbpbench/run.sh --workload paper-tables --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md beside this file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	qbpartd string    // daemon binary, for daemon-open-loop
	log     io.Writer // progress and failure notes (standard error)
}

type workload func(cfg config) (*result, *tracer, error)

var workloads = map[string]workload{
	"paper-tables":     paperTables,
	"vcycle-100k":      vcycle100k,
	"daemon-open-loop": daemonOpenLoop,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: paper-tables, vcycle-100k or daemon-open-loop")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 25, "measured time per run")
		traceOn  = fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end ones")
		qbpartd  = fs.String("qbpartd", "", "path to the qbpartd binary (daemon-open-loop)")
		spansOut = fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "qbpbench: need -workload (paper-tables, vcycle-100k, daemon-open-loop), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceOn == 1, qbpartd: *qbpartd, log: stderr}
	res, tr, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "qbpbench: %s: %v\n", *name, err)
		return 1
	}
	if tr != nil && *spansOut != "" {
		if err := writeSpans(*spansOut, tr); err != nil {
			fmt.Fprintf(stderr, "qbpbench: %v\n", err)
			return 1
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		printSelfTimes(stdout, tr)
	} else {
		for _, d := range endToEnd {
			if _, ok := res.values[d.name]; !ok {
				fmt.Fprintf(stderr, "qbpbench: %s did not measure %s\n", *name, d.name)
				return 1
			}
		}
	}
	if err := res.report(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "qbpbench: %v\n", err)
		return 1
	}
	return 0
}

// printSelfTimes prints each layer's total self time in the traced
// operations, largest first: the run's breakdown of where time went.
func printSelfTimes(w io.Writer, tr *tracer) {
	if tr == nil {
		return
	}
	self := selfByName(tr.spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Fprintln(w, "self time by span (traced operations):")
	for _, name := range sortedByValue(self) {
		fmt.Fprintf(w, "  %-28s %9.3f s %5.1f%%\n", name, self[name].Seconds(), 100*self[name].Seconds()/total.Seconds())
	}
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.write(f)
	return errors.Join(werr, f.Close())
}

// peakRSSMB is this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timed runs f after a forced collection, so garbage left by earlier work
// is not collected inside the measured section.
func timed(f func() error) (time.Time, time.Time, error) {
	runtime.GC()
	start := time.Now()
	err := f()
	return start, time.Now(), err
}

// setupReps is how many times the paper and daemon workloads repeat their
// set-up; setup_s is the median. vcycle-100k, whose set-up takes seconds,
// repeats it vcSetupReps times.
const setupReps = 5
