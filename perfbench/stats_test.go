package main

import (
	"testing"
	"time"
)

func msSamples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[n-1-i] = time.Duration(i+1) * time.Millisecond // reversed: summarize sorts
	}
	return out
}

func TestPercentileSelectionAndOmission(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		ok     bool
		wantMs float64
	}{
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{100, 0.9, true, 90},
		{99, 0.9, false, 0},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		got := summarize(msSamples(c.n), c.p)
		pc, ok := got[pctName(c.p)]
		if ok != c.ok {
			t.Errorf("n=%d %s: published=%v, want %v", c.n, pctName(c.p), ok, c.ok)
			continue
		}
		if ok && (pc.Ms != c.wantMs || pc.Samples != c.n) {
			t.Errorf("n=%d %s = %+v, want %vms from %d samples", c.n, pctName(c.p), pc, c.wantMs, c.n)
		}
	}
}

func TestMedianDur(t *testing.T) {
	if got := medianDur([]time.Duration{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianDur([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("even median = %v", got)
	}
}
