package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 10, false},
		{20, 50, 10, true},
		{99, 90, 90, false},
		{100, 90, 90, true},
		{200, 90, 180, true},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := seq(c.n).percentile(c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("p%g of %d samples = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSetPctReportsSampleCount(t *testing.T) {
	r := newResult()
	r.setPct("few", seq(99), 90)
	r.setPct("enough", seq(100), 90)
	if v := r.values["few"]; v.v != 0 || v.n != 99 || v.note == "" {
		t.Errorf("p90 of 99 samples reported as %+v, want an unreported zero with n=99", v)
	}
	if v := r.values["enough"]; v.v != 90 || v.n != 100 || v.note != "" {
		t.Errorf("p90 of 100 samples = %+v, want 90 with n=100", v)
	}
}

func TestSelfTimeSubtractsCoveredPartOnly(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	var tr tracer
	root := tr.add("root", -1, 0, at(0), at(10))
	tr.add("a", root, 0, at(1), at(3))
	tr.add("b", root, 0, at(2), at(5))       // overlaps a: [1,5] covered once
	c := tr.add("c", root, 0, at(8), at(12)) // sticks out: only [8,10] counts
	tr.add("d", c, 0, at(9), at(10))
	self := selfTimes(tr.spans)
	want := []time.Duration{4 * time.Second, 2 * time.Second, 3 * time.Second, 3 * time.Second, time.Second}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := selfByName(tr.spans)["root"]; got != 4*time.Second {
		t.Errorf("root self = %v, want 4s", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", -1, 0, time.Now(), time.Now()); id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestArrivalsDeterministicFromSeed(t *testing.T) {
	a, b := arrivals(7, 30), arrivals(7, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 30)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 120 {
		t.Fatalf("schedule has %d jobs, want 120 (4/s for 30 s)", len(a))
	}
	if short := arrivals(7, 5); len(short) != daemonMinJobs || short[len(short)-1].due != a[len(a)-1].due {
		t.Fatalf("a 5 s run has %d jobs, want the minimum %d at the same rate", len(short), daemonMinJobs)
	}
	if long := arrivals(7, 40); len(long) != 160 {
		t.Fatalf("a 40 s run has %d jobs, want 160", len(long))
	}
	formats := map[int][2]int{}
	for k, j := range a {
		if j.due < 0 || j.due >= 30*time.Second || (k > 0 && j.due < a[k-1].due) {
			t.Fatalf("job %d due at %v: out of range or out of order", k, j.due)
		}
		if k%2 == 1 && j.due != a[k-1].due {
			t.Fatalf("jobs %d and %d are due at %v and %v, want one pair", k-1, k, a[k-1].due, j.due)
		}
		f := formats[j.inst]
		if j.binary {
			f[1]++
		} else {
			f[0]++
		}
		formats[j.inst] = f
	}
	for inst, f := range formats {
		if f != [2]int{1, 1} {
			t.Errorf("instance %d sent as text %d times and binary %d times, want once each", inst, f[0], f[1])
		}
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-] or too long", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s is not a valid unit", d.unit, d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
}

func TestMeanOfMediansAndOverhead(t *testing.T) {
	o := newOpTimes()
	for _, v := range []float64{1, 1, 9} { // one disturbed repetition
		o.add("a", false, v)
	}
	o.add("b", false, 3)
	o.add("a", true, 1.1)
	o.add("b", true, 3.3)
	if got, n := o.meanOfMedians(); got != 2 || n != 2 {
		t.Errorf("meanOfMedians = %v over %d identities, want 2 over 2", got, n)
	}
	if got, n := o.overhead(); n != 2 || got < 0.0999 || got > 0.1001 {
		t.Errorf("overhead = %v over %d identities, want 0.1 over 2", got, n)
	}
}

// An identity without a checked answer must leave the quality figures
// unset, not make them read better.
func TestSetQualityNeedsEveryIdentity(t *testing.T) {
	o := newOpTimes()
	o.add("a", false, 1)
	o.add("b", false, 3)
	res := newResult()
	setQuality(res, o, map[string]int64{"a": 10}, 2, 40, 2)
	for _, name := range []string{"latency_s_mean", "wl_vs_golden"} {
		if v, ok := res.values[name]; ok {
			t.Errorf("%s = %v with one identity missing, want unset", name, v.v)
		}
	}
	setQuality(res, o, map[string]int64{"a": 10, "b": 20}, 2, 40, 2)
	if v := res.values["wl_vs_golden"].v; v != 0.75 {
		t.Errorf("wl_vs_golden = %v, want 0.75", v)
	}
	if v := res.values["latency_s_mean"].v; v != 2 {
		t.Errorf("latency_s_mean = %v, want 2", v)
	}
}
