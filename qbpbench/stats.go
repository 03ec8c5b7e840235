package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a p90 needs at least 100 samples, a
// median at least 20.
const minBeyond = 10

// sample is a set of measurements of one quantity.
type sample []float64

// percentile returns the nearest-rank p-th percentile (0 < p < 100) and
// whether the sample is large enough to report it: at least minBeyond
// samples must rank above it.
func (s sample) percentile(p float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for an empty sample. Unlike percentile it carries no
// sample-count rule: it summarizes repetitions of one operation, not a
// latency distribution.
func (s sample) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// keyed collects one sample per identity.
type keyed map[string]sample

// sumOfMedians adds up each identity's median: the figure for one round.
func (k keyed) sumOfMedians() (float64, int) {
	t, n := 0.0, 0
	for _, key := range sortedKeys(k) {
		t += k[key].median()
		n += len(k[key])
	}
	return t, n
}

// sortedKeys fixes the order of a map's keys, so float sums over it repeat
// bit for bit.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// opTimes groups the latencies of repeated operations by identity (one
// circuit and mode, one instance, one job), traced and untraced apart.
type opTimes struct {
	keys          []string // identities in first-seen order
	plain, traced map[string]sample
}

func newOpTimes() *opTimes {
	return &opTimes{plain: map[string]sample{}, traced: map[string]sample{}}
}

func (o *opTimes) add(key string, traced bool, seconds float64) {
	if len(o.plain[key])+len(o.traced[key]) == 0 {
		o.keys = append(o.keys, key)
	}
	if traced {
		o.traced[key] = append(o.traced[key], seconds)
	} else {
		o.plain[key] = append(o.plain[key], seconds)
	}
}

// meanOfMedians is the mean over identities of each identity's median
// latency, over untraced operations. Taking the median per identity first
// keeps one disturbed repetition from moving the figure, and averaging over
// identities keeps the mix of operations fixed whatever the run length. It
// also returns the number of identities behind the figure.
func (o *opTimes) meanOfMedians() (float64, int) {
	var per sample
	for _, k := range o.keys {
		if s := o.plain[k]; len(s) > 0 {
			per = append(per, s.median())
		}
	}
	return per.mean(), len(per)
}

// overhead is the tracing overhead: the median over identities timed both
// traced and untraced of (traced median / untraced median) − 1.
func (o *opTimes) overhead() (float64, int) {
	var ratios sample
	for _, k := range o.keys {
		t, u := o.traced[k], o.plain[k]
		if len(t) > 0 && len(u) > 0 && u.median() > 0 {
			ratios = append(ratios, t.median()/u.median()-1)
		}
	}
	return ratios.median(), len(ratios)
}
