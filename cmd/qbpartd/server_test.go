package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	partition "repro"
	"repro/internal/jobqueue"
	"repro/internal/testgen"
)

// newTestDaemon starts an httptest server over a fresh pool and registers
// its drain as cleanup.
func newTestDaemon(t *testing.T, cfg jobqueue.Config) (*httptest.Server, *jobqueue.Pool) {
	t.Helper()
	pool := jobqueue.New(cfg)
	ts := httptest.NewServer(newServer(pool, 1<<20))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := pool.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ts, pool
}

// problemBytes serializes a small deterministic instance in the requested
// format.
func problemBytes(t *testing.T, seed int64, n int, binary bool) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, _ := testgen.Random(rng, testgen.Config{N: n, TimingProb: 0.3, CapSlack: 1.5})
	var buf bytes.Buffer
	var err error
	if binary {
		err = partition.WriteProblemBinary(&buf, p)
	} else {
		err = partition.WriteProblem(&buf, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postJob submits a problem body and decodes the acknowledgement.
func postJob(t *testing.T, ts *httptest.Server, body []byte, query string) (submitResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return ack, resp
}

// getStatus fetches and decodes one job status.
func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollDone polls a job until it reaches a terminal state.
func pollDone(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertNoGoroutineLeak fails the test at cleanup when the goroutine count
// has not settled back to its starting level.
func assertNoGoroutineLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.Gosched()
			if runtime.NumGoroutine() <= base {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after", base, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestSubmitPollResultRoundTrip: submit in both serializations, poll to
// completion, and check the result body — the daemon's core loop.
func TestSubmitPollResultRoundTrip(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, _ := newTestDaemon(t, jobqueue.Config{Workers: 2, QueueCap: 8})

	for _, tc := range []struct {
		name   string
		binary bool
		format string
	}{
		{"text", false, "text"},
		{"binary", true, "binary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := problemBytes(t, 31, 30, tc.binary)
			ack, resp := postJob(t, ts, body, "method=qbp&iterations=8&seed=5")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST: %d", resp.StatusCode)
			}
			if ack.Format != tc.format {
				t.Errorf("detected format %q, want %q", ack.Format, tc.format)
			}
			if ack.Components != 30 {
				t.Errorf("components = %d, want 30", ack.Components)
			}
			st := pollDone(t, ts, ack.ID)
			if st.State != "done" {
				t.Fatalf("state %q (error %q)", st.State, st.Error)
			}
			if st.Result == nil || len(st.Result.Assignment) != 30 {
				t.Fatal("missing assignment in result")
			}
			if st.Result.Stats == nil || st.Result.Stats.Iterations == 0 {
				t.Error("missing qbp stats")
			}
			if st.Result.Stopped {
				t.Error("unbounded solve reported stopped")
			}
		})
	}
}

// TestGAPFallbackJobSucceeds: a job whose STEP 4/6 constructor dead-ends
// (this small slack-1.10 circuit from the seed-3 random start) completes,
// and the job stats report the fallbacks that answered it.
func TestGAPFallbackJobSucceeds(t *testing.T) {
	ts, _ := newTestDaemon(t, jobqueue.Config{Workers: 1, QueueCap: 2})
	in, err := partition.GenerateCircuit(partition.GenerateParams{Spec: partition.CircuitSpec{
		Name: "custom-2100", Components: 100, Wires: 600, TimingConstraints: 200, Seed: 2100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := partition.WriteProblem(&buf, in.Problem); err != nil {
		t.Fatal(err)
	}
	ack, resp := postJob(t, ts, buf.Bytes(), "method=qbp&iterations=50&seed=3")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	st := pollDone(t, ts, ack.ID)
	if st.State != "done" || st.Result == nil || st.Result.Stats == nil {
		t.Fatalf("state %q (error %q), want done with stats", st.State, st.Error)
	}
	if st.Result.Stats.GAPFallbacks == 0 || !st.Result.Feasible {
		t.Fatalf("gap_fallbacks = %d, feasible = %v; want > 0 and true", st.Result.Stats.GAPFallbacks, st.Result.Feasible)
	}
}

// TestFixedSeedIdenticalAcrossDaemons: the same POST against daemons with
// worker pools of 1, 2 and 8 returns the identical assignment.
func TestFixedSeedIdenticalAcrossDaemons(t *testing.T) {
	assertNoGoroutineLeak(t)
	body := problemBytes(t, 32, 40, true)
	var reference []int
	for _, workers := range []int{1, 2, 8} {
		ts, _ := newTestDaemon(t, jobqueue.Config{Workers: workers, QueueCap: 8})
		ack, resp := postJob(t, ts, body, "method=qbp&iterations=10&multistart=3&seed=42")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("workers=%d: POST %d", workers, resp.StatusCode)
		}
		st := pollDone(t, ts, ack.ID)
		if st.State != "done" {
			t.Fatalf("workers=%d: state %q", workers, st.State)
		}
		got := st.Result.Assignment
		if reference == nil {
			reference = got
			continue
		}
		for c := range reference {
			if got[c] != reference[c] {
				t.Fatalf("workers=%d: assignment differs at component %d", workers, c)
			}
		}
	}
}

// TestCancelMidSolveReturnsIncumbent: DELETE on a running job completes it
// with stopped=true and a full assignment.
func TestCancelMidSolveReturnsIncumbent(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, pool := newTestDaemon(t, jobqueue.Config{Workers: 1, QueueCap: 4})

	body := problemBytes(t, 33, 40, false)
	ack, resp := postJob(t, ts, body, "method=qbp&iterations=50000000&seed=5")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	// Wait for the solve to actually start.
	j, _ := pool.Job(ack.ID)
	for j.Status().State == jobqueue.StateQueued {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let an incumbent form

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+ack.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	st := pollDone(t, ts, ack.ID)
	if st.State != "done" {
		t.Fatalf("state %q, want done", st.State)
	}
	if st.Result == nil || !st.Result.Stopped {
		t.Error("cancelled job did not report a stopped best-so-far result")
	}
	if len(st.Result.Assignment) != 40 {
		t.Error("cancelled job missing its incumbent assignment")
	}
}

// TestDeadlineReturnsStopped: a deadline-bounded job completes with
// stopped=true and a feasible assignment.
func TestDeadlineReturnsStopped(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, _ := newTestDaemon(t, jobqueue.Config{Workers: 1, QueueCap: 4})
	body := problemBytes(t, 34, 40, false)
	ack, resp := postJob(t, ts, body, "method=qbp&iterations=50000000&seed=5&deadline=150ms")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	st := pollDone(t, ts, ack.ID)
	if st.State != "done" || st.Result == nil || !st.Result.Stopped {
		t.Fatalf("deadline job: state %q, want done with stopped=true", st.State)
	}
}

// TestQueueFull429: backpressure answers 429 with a Retry-After hint.
func TestQueueFull429(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, pool := newTestDaemon(t, jobqueue.Config{Workers: 1, QueueCap: 1})

	long := problemBytes(t, 35, 40, false)
	ack, resp := postJob(t, ts, long, "iterations=50000000&seed=1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST blocker: %d", resp.StatusCode)
	}
	j, _ := pool.Job(ack.ID)
	for j.Status().State == jobqueue.StateQueued {
		time.Sleep(time.Millisecond)
	}

	short := problemBytes(t, 36, 20, false)
	if _, resp := postJob(t, ts, short, "iterations=2"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST queued: %d", resp.StatusCode)
	}
	_, overflow := postJob(t, ts, short, "iterations=2")
	if overflow.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: %d, want 429", overflow.StatusCode)
	}
	if overflow.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	pool.Cancel(ack.ID)
}

// TestAdmission413AndBadRequests: the size ceiling answers 413; garbage
// bodies, bad knobs and unknown methods answer 400; unknown IDs 404.
func TestAdmission413AndBadRequests(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, _ := newTestDaemon(t, jobqueue.Config{Workers: 1, QueueCap: 4, MaxComponents: 25})

	if _, resp := postJob(t, ts, problemBytes(t, 37, 40, false), ""); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize POST: %d, want 413", resp.StatusCode)
	}
	if _, resp := postJob(t, ts, []byte("not a problem"), ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage POST: %d, want 400", resp.StatusCode)
	}
	small := problemBytes(t, 37, 20, false)
	if _, resp := postJob(t, ts, small, "method=annealer"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad method POST: %d, want 400", resp.StatusCode)
	}
	if _, resp := postJob(t, ts, small, "iterations=lots"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad iterations POST: %d, want 400", resp.StatusCode)
	}
	if _, resp := postJob(t, ts, small, "deadline=-3s"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad deadline POST: %d, want 400", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id GET: %d, want 404", resp.StatusCode)
	}
}

// TestEventStream: the SSE endpoint delivers progress events and a final
// done event carrying the result.
func TestEventStream(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, _ := newTestDaemon(t, jobqueue.Config{Workers: 1, QueueCap: 4, ProgressInterval: time.Nanosecond})

	// Iterations far beyond the deadline keep the solve alive long enough
	// for the SSE subscription to observe progress; the deadline then ends
	// it with a stopped best-so-far result in the done event.
	body := problemBytes(t, 38, 30, false)
	ack, resp := postJob(t, ts, body, "method=qbp&iterations=50000000&seed=5&deadline=400ms")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	var sawProgress bool
	var doneData string
	scanner := bufio.NewScanner(sresp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var pr progressBody
				if err := json.Unmarshal([]byte(data), &pr); err != nil {
					t.Fatalf("progress payload: %v", err)
				}
				if pr.Iteration > 0 {
					sawProgress = true
				}
			case "done":
				doneData = data
			}
		}
	}
	if err := scanner.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !sawProgress {
		t.Error("stream delivered no progress events")
	}
	if doneData == "" {
		t.Fatal("stream ended without a done event")
	}
	var final statusResponse
	if err := json.Unmarshal([]byte(doneData), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Result == nil || len(final.Result.Assignment) != 30 {
		t.Errorf("done event incomplete: state %q", final.State)
	}
}

// TestMetricsAndHealth: /metrics exposes the expected series and /healthz
// flips to 503 once draining.
func TestMetricsAndHealth(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, pool := newTestDaemon(t, jobqueue.Config{Workers: 2, QueueCap: 4})

	ack, resp := postJob(t, ts, problemBytes(t, 39, 20, false), "iterations=3&seed=2")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	pollDone(t, ts, ack.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{
		"qbpartd_queue_depth 0",
		"qbpartd_workers 2",
		"qbpartd_jobs_submitted_total 1",
		"qbpartd_jobs_completed_total 1",
		`qbpartd_solve_seconds_bucket{le="+Inf"} 1`,
		"qbpartd_solve_seconds_count 1",
		"qbpartd_wait_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d, want 200", hresp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hresp.StatusCode)
	}

	// Submissions during drain: 503 with Retry-After.
	_, dresp := postJob(t, ts, problemBytes(t, 39, 20, false), "")
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drain POST: %d, want 503", dresp.StatusCode)
	}
}

// TestListJobs: GET /jobs returns every submission in order.
func TestListJobs(t *testing.T) {
	assertNoGoroutineLeak(t)
	ts, _ := newTestDaemon(t, jobqueue.Config{Workers: 2, QueueCap: 8})
	body := problemBytes(t, 40, 20, false)
	var ids []string
	for i := 0; i < 3; i++ {
		ack, resp := postJob(t, ts, body, fmt.Sprintf("iterations=2&seed=%d", i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, ack.ID)
	}
	for _, id := range ids {
		pollDone(t, ts, id)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list has %d entries, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
}
