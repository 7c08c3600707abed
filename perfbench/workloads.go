package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
)

// Pinned rig and load settings. Changing any of them changes what the
// benchmark measures, so results taken before and after are not comparable.
const (
	rigScale            = 4 // TPC-DS scale: 200 items, 32k store_sales rows
	rigServers          = 5 // region servers, each also an executor host
	rigExecutorsPerHost = 2
	rigDataSeed         = 42
	setupRepeats        = 5                     // boots per timed run; setup_s is their median
	writeInterval       = 50 * time.Millisecond // 20 batches/s
	writeBatchRows      = 20                    // so 400 rows/s offered
)

// rigConfig is the rig every workload boots. The network is zero-cost: the
// modeled wire time is computed from counted work (wireModel), never slept,
// so timer slack cannot masquerade as network cost. The store keeps its
// default flush policy (hbase.StoreConfig zero value).
//
// The dataset is pinned like the scale; --seed drives the load's choices
// instead. The data seed decides how full each region's memstore is when
// the load starts, and so where scan-under-write's flush sawtooth falls in
// the measured window: varied per run, it reads as 20-30% noise.
func rigConfig() harness.Config {
	return harness.Config{
		System:           harness.SHC,
		Servers:          rigServers,
		Scale:            rigScale,
		ExecutorsPerHost: rigExecutorsPerHost,
		Seed:             rigDataSeed,
		RPC:              rpc.Config{},
	}
}

// sut is the system under test: one booted rig and the reference answers
// for the data it was loaded with.
type sut struct {
	rig *harness.Rig
	ref *reference
}

// boot sets the rig up n times and keeps the last one, returning every
// set-up time. A set-up boots the cluster, generates the data and loads it
// through the SHC write path. Each starts after a forced collection, so it
// does not pay for its predecessor's garbage.
func boot(n int) (*sut, []time.Duration, error) {
	var times []time.Duration
	var rig *harness.Rig
	for i := 0; i < n; i++ {
		if rig != nil {
			rig.Close()
			rig = nil
		}
		runtime.GC()
		start := time.Now()
		r, err := harness.NewRig(rigConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		rig = r
	}
	return &sut{rig: rig, ref: newReference(rig.Data)}, times, nil
}

// query runs one checked statement through the public engine API.
func (s *sut) query(ctx context.Context, c check) (answer, error) {
	df, err := s.rig.Session.SQL(c.sql)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", c.name, err)
	}
	rows, err := df.CollectContext(ctx)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", c.name, err)
	}
	return answer{c: c, rows: rows}, nil
}

// workload is one traffic mix.
type workload struct {
	clients int  // closed-loop clients issuing op
	writer  bool // adds the open-loop store_sales writer
	// warmup runs after the cold first operation and before timing, so
	// region locations, connections and the heap settle.
	warmup time.Duration
	op     func(s *sut) opFunc
}

var workloads = map[string]workload{
	// One client runs the whole TPC-DS-style stream as one operation, in a
	// seeded order. Region reads, paging, client decode, exec operators,
	// shuffle and join do nearly all the work; timing the stream as one op
	// keeps the latency distribution single-peaked.
	"tpcds-stream": {clients: 1, warmup: time.Second, op: func(s *sut) opFunc {
		return func(ctx context.Context, rng *rand.Rand) ([]answer, error) {
			out := make([]answer, 0, len(s.ref.stream))
			for _, i := range rng.Perm(len(s.ref.stream)) {
				a, err := s.query(ctx, s.ref.stream[i])
				if err != nil {
					return nil, err
				}
				out = append(out, a)
			}
			return out, nil
		}
	}},
	// Two clients look up uniformly drawn items. Fixed per-query cost
	// dominates (parse, optimize, compile, task launch, region location,
	// RPC dispatch), so a per-query overhead cut shows here and a scan-path
	// change should not.
	"point-lookup": {clients: 2, warmup: time.Second, op: func(s *sut) opFunc {
		return func(ctx context.Context, rng *rand.Rand) ([]answer, error) {
			k := s.ref.itemKeys[rng.Intn(len(s.ref.itemKeys))]
			a, err := s.query(ctx, s.ref.lookups[k])
			return []answer{a}, err
		}
	}},
	// One reader scans store_sales while the writer rewrites generated rows
	// with their generated values: memstore inserts, WAL appends and flushes
	// run under the read path, yet the reader's answer never changes, so
	// every scan is checked exactly. The load leaves every memstore part
	// full, and they flush together about 6 s into the writes; warming up
	// for 10 s keeps that one-off flush out of the timed window, which then
	// sees memstores growing from empty at the offered rate.
	"scan-under-write": {clients: 1, writer: true, warmup: 10 * time.Second, op: func(s *sut) opFunc {
		return func(ctx context.Context, _ *rand.Rand) ([]answer, error) {
			a, err := s.query(ctx, s.ref.invariant)
			return []answer{a}, err
		}
	}},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rewriter returns the writer's send function: each batch rewrites
// writeBatchRows seeded picks of the generated store_sales rows, unchanged,
// through the SHC write path.
func (s *sut) rewriter(rng *rand.Rand) (func(int) (int, error), error) {
	rel, err := s.rig.Relation("store_sales")
	if err != nil {
		return nil, err
	}
	src := s.rig.Data.StoreSales
	return func(int) (int, error) {
		batch := make([]plan.Row, writeBatchRows)
		for i := range batch {
			batch[i] = src[rng.Intn(len(src))]
		}
		return len(batch), rel.Insert(batch)
	}, nil
}

// phase is one timed stretch of a workload.
type phase struct {
	out     *outcome
	writes  []writeSample
	global  map[string]int64 // cluster-wide counter changes
	mem     [2]memSample
	elapsed time.Duration
}

// runPhase drives the workload for d. The writer, when the workload has
// one, shares the deadline; both are waited for before returning.
func runPhase(s *sut, op opFunc, rngs []*rand.Rand, send func(int) (int, error), d time.Duration, pr probe) *phase {
	p := &phase{}
	before := s.rig.Meter.Snapshot()
	p.mem[0] = readMem()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if send != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.writes = openLoop(start, deadline, writeInterval, send)
		}()
	}
	p.out = closedLoop(op, rngs, deadline, pr)
	p.elapsed = time.Since(start)
	wg.Wait()
	p.mem[1] = readMem()
	p.global = metrics.Diff(before, s.rig.Meter.Snapshot())
	return p
}

// clientRNGs gives each client, and the writer, its own seeded source.
func clientRNGs(seed int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*1000003 + int64(i)))
	}
	return rngs
}
