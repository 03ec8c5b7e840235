package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around its own calls (or reconstructed from timestamps and
// phase timers the call returned).
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int       `json:"op"`     // operation (solve, V-cycle or job) the span belongs to
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// tracer keeps spans in memory; a nil tracer records nothing, so untraced
// operations pay one nil check per call site.
type tracer struct {
	spans []span
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// seq records children laid end to end from start, one per duration, for
// phases a call reports as durations only (qbp.SolveStats).
func (t *tracer) seq(parent, op int, start time.Time, names []string, ds []time.Duration) {
	for i, name := range names {
		end := start.Add(ds[i])
		t.add(name, parent, op, start, end)
		start = end
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap (parallel
// starts) or stick out of the parent; only the covered part of the parent's
// own interval is subtracted.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a.After(curB):
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			case v.b.After(curB):
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB.Sub(curA)
		}
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// write dumps the spans as JSON, one object per line.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// sortedByValue returns the keys of m, largest value first.
func sortedByValue(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if m[keys[a]] != m[keys[b]] {
			return m[keys[a]] > m[keys[b]]
		}
		return keys[a] < keys[b]
	})
	return keys
}
