package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/trace"
)

// errWrong marks an operation whose answer differed from the reference.
var errWrong = errors.New("wrong answer")

// answer is one statement's returned rows, checked against its reference
// after the operation's clock has stopped.
type answer struct {
	c    check
	rows []plan.Row
}

// opFunc runs one operation. Random choices come from rng, which belongs to
// the calling client alone.
type opFunc func(ctx context.Context, rng *rand.Rand) ([]answer, error)

// outcome is the tally of one client's operations.
type outcome struct {
	lat        []time.Duration // successful untraced operations
	tracedLat  []time.Duration // successful traced operations
	attempted  int
	failed     int
	wrong      int
	resultRows int64
	scoped     map[string]int64 // summed per-operation metric scopes
	hists      map[string]histSum
	spans      spanTotals
	firstErr   error
}

type histSum struct {
	count int64
	sum   time.Duration
}

func newOutcome() *outcome {
	return &outcome{scoped: make(map[string]int64), hists: make(map[string]histSum)}
}

// probe says how a phase's operations are instrumented.
type probe int

const (
	// plain operations carry nothing the benchmark added: the end-to-end
	// timings measure what a user's query pays.
	plain probe = iota
	// counted operations each carry their own metrics scope, so their
	// counters stay their own while a writer shares the cluster.
	counted
	// alternating operations are counted, and every other one also carries
	// a fresh trace, so traced and untraced operations see the same cluster
	// state and their latencies compare directly.
	alternating
)

// do runs, times and checks one operation. A traced operation's trace is
// folded into the span totals as soon as it ends.
func (o *outcome) do(op opFunc, rng *rand.Rand, scoped, traced bool) time.Duration {
	ctx := context.Background()
	var scope *metrics.Registry
	if scoped {
		scope = metrics.NewRegistry()
		ctx = metrics.WithScope(ctx, scope)
	}
	var tr *trace.Trace
	if traced {
		tr = trace.New("op")
		ctx = trace.NewContext(ctx, tr)
	}
	start := time.Now()
	answers, err := op(ctx, rng)
	lat := time.Since(start)
	tr.Finish()

	o.attempted++
	if err == nil {
		for _, a := range answers {
			if verr := a.c.verify(a.rows); verr != nil {
				err = errors.Join(errWrong, verr)
				o.wrong++
				break
			}
		}
	}
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
		return lat
	}
	if traced {
		o.tracedLat = append(o.tracedLat, lat)
	} else {
		o.lat = append(o.lat, lat)
	}
	for _, a := range answers {
		o.resultRows += int64(len(a.rows))
	}
	if scope != nil {
		for k, v := range scope.Snapshot() {
			o.scoped[k] += v
		}
		for k, h := range scope.Histograms() {
			s := o.hists[k]
			s.count += h.Count()
			s.sum += h.Sum()
			o.hists[k] = s
		}
	}
	if tr != nil {
		o.spans.add(tr)
	}
	return lat
}

func (o *outcome) merge(x *outcome) {
	o.lat = append(o.lat, x.lat...)
	o.tracedLat = append(o.tracedLat, x.tracedLat...)
	o.attempted += x.attempted
	o.failed += x.failed
	o.wrong += x.wrong
	o.resultRows += x.resultRows
	for k, v := range x.scoped {
		o.scoped[k] += v
	}
	for k, h := range x.hists {
		s := o.hists[k]
		s.count += h.count
		s.sum += h.sum
		o.hists[k] = s
	}
	o.spans.merge(&x.spans)
	if o.firstErr == nil {
		o.firstErr = x.firstErr
	}
}

// closedLoop runs one goroutine per rng, each issuing its next operation as
// soon as the previous one returns, until the deadline. Operations started
// before the deadline finish and count.
func closedLoop(op opFunc, rngs []*rand.Rand, deadline time.Time, pr probe) *outcome {
	outs := make([]*outcome, len(rngs))
	var wg sync.WaitGroup
	for i := range rngs {
		outs[i] = newOutcome()
		wg.Add(1)
		go func(out *outcome, rng *rand.Rand) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				out.do(op, rng, pr != plain, pr == alternating && n%2 == 1)
			}
		}(outs[i], rngs[i])
	}
	wg.Wait()
	total := newOutcome()
	for _, out := range outs {
		total.merge(out)
	}
	return total
}

// writeSample is one batch of the open-loop writer. Latency is measured
// from when the batch was due, so a stall charges every batch queued
// behind it; lag is how late the batch was sent.
type writeSample struct {
	lat, lag time.Duration
	rows     int
	err      error
}

// openLoop sends one batch every interval from start until end, on a fixed
// schedule that does not wait for the system: a batch whose turn has passed
// is sent at once, and its lateness is recorded.
func openLoop(start, end time.Time, interval time.Duration, send func(i int) (int, error)) []writeSample {
	var out []writeSample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		n, err := send(i)
		out = append(out, writeSample{lat: time.Since(due), lag: sent.Sub(due), rows: n, err: err})
	}
}

// memSample is the Go runtime's allocation and GC counters at one instant.
type memSample struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
