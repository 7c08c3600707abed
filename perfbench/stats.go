package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// published: a p99 from 50 samples is the maximum wearing a costume.
const minTail = 10

// percentile is one published latency percentile with the sample count it
// was taken from.
type percentile struct {
	Ms      float64 `json:"ms"`
	Samples int     `json:"samples"`
}

// percentileOf returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// and false when fewer than minTail samples lie beyond it.
func percentileOf(sorted []time.Duration, p float64) (percentile, bool) {
	n := len(sorted)
	if n == 0 {
		return percentile{}, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minTail {
		return percentile{}, false
	}
	return percentile{Ms: ms(sorted[idx]), Samples: n}, true
}

// summarize sorts samples in place and returns every percentile in ps that
// has enough tail behind it, keyed "p50", "p90", ...
func summarize(samples []time.Duration, ps ...float64) map[string]percentile {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	out := make(map[string]percentile, len(ps))
	for _, p := range ps {
		if v, ok := percentileOf(samples, p); ok {
			out[pctName(p)] = v
		}
	}
	return out
}

func pctName(p float64) string {
	return "p" + strconv.Itoa(int(math.Round(p*100)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a non-empty slice of durations (sorts in place).
func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}
