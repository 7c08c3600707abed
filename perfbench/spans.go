package main

import (
	"sort"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/trace"
)

// spanTotals folds traced operations into per-layer busy times.
//
// trace.Span exposes durations but no start times, so a span's self time is
// its duration minus its children's only when the children fit inside it.
// When they sum to more, they ran in parallel (tasks under execute, for
// one), and subtracting would invent a negative self time; those layers are
// reported as their children's busy sums instead.
type spanTotals struct {
	// Direct children of an operation's root: the query phases.
	parse, optimize, compile time.Duration
	// Busy sum of the region.scan and region.get spans below execute.
	regionRead time.Duration
	// rpc:* time minus the region.* spans inside each call.
	rpcSelf time.Duration
	// Per operation, the share of its wall time the query phases covered.
	coverage []float64
}

func (t *spanTotals) add(tr *trace.Trace) {
	wall := tr.Duration()
	var phases time.Duration
	tr.Walk(func(depth int, s *trace.Span) {
		name, d := s.Name(), s.Duration()
		if depth == 1 {
			switch name {
			case "parse":
				t.parse += d
			case "optimize":
				t.optimize += d
			case "compile":
				t.compile += d
			case "execute":
			default:
				return
			}
			phases += d
			return
		}
		switch {
		case name == "region.scan" || name == "region.get":
			t.regionRead += d
		case strings.HasPrefix(name, "rpc:"):
			var inner time.Duration
			for _, k := range s.Children() {
				if strings.HasPrefix(k.Name(), "region.") {
					inner += k.Duration()
				}
			}
			if inner > d {
				return // the children overlapped: no self time to give
			}
			t.rpcSelf += d - inner
		}
	})
	cov := 0.0
	if wall > 0 {
		cov = float64(phases) / float64(wall)
	}
	t.coverage = append(t.coverage, cov)
}

func (t *spanTotals) merge(x *spanTotals) {
	t.coverage = append(t.coverage, x.coverage...)
	t.parse += x.parse
	t.optimize += x.optimize
	t.compile += x.compile
	t.regionRead += x.regionRead
	t.rpcSelf += x.rpcSelf
}

// coverageAt returns the q-quantile (0 = the minimum) of the per-operation
// phase coverage.
func (t *spanTotals) coverageAt(q float64) float64 {
	if len(t.coverage) == 0 {
		return 0
	}
	c := append([]float64(nil), t.coverage...)
	sort.Float64s(c)
	return c[int(q*float64(len(c)-1))]
}
