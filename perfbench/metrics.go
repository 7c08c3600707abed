package main

import (
	"fmt"
	"time"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestMetricTablesMatchBenchmarkFile).
type metricDef struct {
	name, unit, better string
	// For per-layer metrics: the layer measured, and the end-to-end metric
	// and workload a change to that layer should move.
	layer, moves string
}

// endToEnd is what a user of the system sees; every workload reports all
// of it, measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "throughput_ops_s", unit: "1/s", better: "higher"},
	{name: "heap_live_mb", unit: "MiB", better: "lower"},
}

// perLayer is reported by the traced run (--trace 1). Counts, allocation
// and writes come from its untraced phase; span times from the traced
// operations of its second phase, and tracing overhead from comparing them
// with the untraced operations interleaved among them.
var perLayer = []metricDef{
	{"sql.parse_us", "us", "lower", "sql", "point-lookup latency_p50_ms"},
	{"plan.optimize_us", "us", "lower", "plan", "point-lookup latency_p50_ms, throughput_ops_s"},
	{"plan.compile_us", "us", "lower", "exec (compile)", "point-lookup latency_p50_ms, throughput_ops_s"},
	{"exec.queue_wait_ms", "ms", "lower", "exec", "tpcds-stream latency_p50_ms"},
	{"exec.task_busy_ms", "ms", "lower", "exec", "tpcds-stream latency_p50_ms"},
	{"exec.tasks_per_op", "count", "lower", "exec", "tpcds-stream latency_p50_ms"},
	{"exec.local_task_ratio", "ratio", "higher", "exec", "tpcds-stream latency_p50_ms"},
	{"exec.shuffle_bytes_per_op", "bytes", "lower", "exec", "tpcds-stream latency_p50_ms"},
	{"exec.vector_row_share", "ratio", "higher", "exec", "tpcds-stream latency_p50_ms"},
	{"shc.regions_pruned_per_op", "count", "higher", "core", "tpcds-stream latency_p50_ms, modeled wire time"},
	{"shc.rows_examined_per_result", "ratio", "lower", "core", "tpcds-stream latency_p50_ms, modeled wire time"},
	{"client.pages_per_op", "count", "lower", "hbase client", "tpcds-stream, scan-under-write latency_p50_ms"},
	{"client.prefetched_pages_per_op", "count", "higher", "hbase client", "tpcds-stream, scan-under-write latency_p50_ms"},
	{"client.retries_per_op", "count", "lower", "hbase client", "tpcds-stream, scan-under-write latency_p50_ms"},
	{"rpc.calls_per_op", "count", "lower", "rpc", "modeled wire time, every workload"},
	{"rpc.bytes_per_op", "bytes", "lower", "rpc", "modeled wire time, every workload"},
	{"rpc.busy_ms", "ms", "lower", "rpc", "modeled wire time, every workload"},
	{"conn.dials_per_op", "count", "lower", "conncache", "point-lookup modeled wire time"},
	{"conn.reuse_ratio", "ratio", "higher", "conncache", "point-lookup modeled wire time"},
	{"region.read_busy_us", "us", "lower", "hbase region server", "scan-under-write latency_p50_ms"},
	{"server.requests_shed", "count", "lower", "hbase region server", "scan-under-write latency_p50_ms"},
	{"server.memstore_delays", "count", "lower", "hbase region server", "scan-under-write latency_p50_ms"},
	{"hbase.memstore_flushes", "count", "lower", "hbase store", "scan-under-write write latency"},
	{"hbase.compactions", "count", "lower", "hbase store", "scan-under-write write latency"},
	{"hbase.region_splits", "count", "lower", "hbase store", "scan-under-write write latency"},
	{"wal.appends_per_write", "count", "lower", "wal", "scan-under-write write latency"},
	{"go.alloc_mb_per_op", "MiB", "lower", "go runtime", "tpcds-stream latency_p50_ms"},
	{"go.gc_cycles_per_op", "count", "lower", "go runtime", "tpcds-stream latency_p50_ms"},
	{"load.write_rows_per_s", "1/s", "higher", "load generator", "scan-under-write, against 400 offered; 0 where a workload has no writer"},
	{"load.first_op_ms", "ms", "lower", "load generator", "the cold first operation on a fresh rig, every workload"},
	{"load.error_ratio", "ratio", "lower", "load generator", "failed or wrong-answer operations over attempted, every workload"},
	{"trace.overhead_ms", "ms", "lower", "trace", "traced minus untraced latency_p50_ms"},
	{"trace.phase_coverage_min", "ratio", "higher", "trace", "lowest share of a traced operation's wall time that parse, optimize, compile and execute cover"},
	{"trace.phase_coverage_p50", "ratio", "higher", "trace", "that share for the median traced operation"},
}

// pages counts the read RPCs that each return one page of rows.
func pages(hists map[string]histSum) int64 {
	var n int64
	for _, m := range []string{hbase.MethodScan, hbase.MethodFused, hbase.MethodBulkGet} {
		n += hists[metrics.HistRPCLatencyPrefix+m].count
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the end-to-end metrics of one untraced phase.
func endToEndValues(p *phase, setups []time.Duration) (map[string]float64, error) {
	ok := len(p.out.lat)
	pcts := summarize(p.out.lat, 0.5, 0.9)
	v := map[string]float64{
		"setup_s":          medianDur(append([]time.Duration(nil), setups...)).Seconds(),
		"throughput_ops_s": ratio(float64(ok), p.elapsed.Seconds()),
		"heap_live_mb":     heapLiveMB(),
	}
	for _, q := range []string{"p50", "p90"} {
		pc, found := pcts[q]
		if !found {
			return nil, fmt.Errorf("%d operations are too few for latency_%s_ms", ok, q)
		}
		v["latency_"+q+"_ms"] = pc.Ms
	}
	return v, nil
}

// perLayerValues computes the per-layer metrics from the untraced phase u
// and the alternating phase t.
//
// Per-operation counts come from the operations' own metric scopes (sc),
// so writer traffic stays out of them. The cluster-wide diff (gl) holds
// what is recorded outside any query scope: partition pruning at plan
// time, and the server and store counters, which are totals over the phase
// and include the writer's work.
func perLayerValues(u, t *phase, firstOp time.Duration, attempted, failed int) map[string]float64 {
	ops := float64(len(u.out.lat))
	perOp := func(x int64) float64 { return ratio(float64(x), ops) }
	sc, gl, hists := u.out.scoped, u.global, u.out.hists
	sp := t.out.spans
	tops := float64(len(sp.coverage))
	spanUs := func(d time.Duration) float64 { return ratio(us(d), tops) }
	spanMs := func(d time.Duration) float64 { return ratio(ms(d), tops) }

	v := map[string]float64{
		"sql.parse_us":                   spanUs(sp.parse),
		"plan.optimize_us":               spanUs(sp.optimize),
		"plan.compile_us":                spanUs(sp.compile),
		"exec.queue_wait_ms":             ratio(ms(hists[metrics.HistQueueWait].sum), ops),
		"exec.task_busy_ms":              ratio(ms(hists[metrics.HistTaskRun].sum), ops),
		"exec.tasks_per_op":              perOp(sc[metrics.TasksLaunched]),
		"exec.local_task_ratio":          ratio(float64(sc[metrics.TasksLocal]), float64(sc[metrics.TasksLaunched])),
		"exec.shuffle_bytes_per_op":      perOp(sc[metrics.ShuffleBytes]),
		"exec.vector_row_share":          ratio(float64(sc[metrics.VectorRows]), float64(sc[metrics.RowsReturned])),
		"shc.regions_pruned_per_op":      perOp(gl[metrics.RegionsPruned]),
		"shc.rows_examined_per_result":   ratio(float64(sc[metrics.RowsScanned]), float64(u.out.resultRows)),
		"client.pages_per_op":            perOp(pages(hists)),
		"client.prefetched_pages_per_op": perOp(sc[metrics.PagesPrefetched]),
		"client.retries_per_op":          perOp(sc[metrics.ClientRetries]),
		"rpc.calls_per_op":               perOp(sc[metrics.RPCCalls]),
		"rpc.bytes_per_op":               perOp(sc[metrics.RPCBytesSent] + sc[metrics.RPCBytesReceived]),
		"rpc.busy_ms":                    spanMs(sp.rpcSelf),
		"conn.dials_per_op":              perOp(sc[metrics.ConnectionsCreated]),
		"conn.reuse_ratio": ratio(float64(sc[metrics.ConnectionsReused]),
			float64(sc[metrics.ConnectionsReused]+sc[metrics.ConnectionsCreated])),
		"region.read_busy_us":      spanUs(sp.regionRead),
		"server.requests_shed":     float64(gl[metrics.ServerShed]),
		"server.memstore_delays":   float64(gl[metrics.MemstoreDelays]),
		"hbase.memstore_flushes":   float64(gl[metrics.MemstoreFlushes]),
		"hbase.compactions":        float64(gl[metrics.Compactions]),
		"hbase.region_splits":      float64(gl[metrics.RegionSplits]),
		"wal.appends_per_write":    ratio(float64(gl[metrics.WALAppends]), float64(len(u.writes))),
		"go.alloc_mb_per_op":       ratio(float64(u.mem[1].alloc-u.mem[0].alloc)/(1<<20), ops),
		"go.gc_cycles_per_op":      ratio(float64(u.mem[1].gcs-u.mem[0].gcs), ops),
		"load.first_op_ms":         ms(firstOp),
		"load.error_ratio":         ratio(float64(failed), float64(attempted)),
		"trace.phase_coverage_min": sp.coverageAt(0),
		"trace.phase_coverage_p50": sp.coverageAt(0.5),
	}
	var rows int
	for _, w := range u.writes {
		if w.err == nil {
			rows += w.rows
		}
	}
	v["load.write_rows_per_s"] = ratio(float64(rows), u.elapsed.Seconds())
	untraced := summarize(t.out.lat, 0.5)["p50"]
	traced := summarize(t.out.tracedLat, 0.5)["p50"]
	v["trace.overhead_ms"] = traced.Ms - untraced.Ms
	return v
}

// writeLatencies lists the phase's acknowledged writes' latencies.
func (p *phase) writeLatencies() []time.Duration {
	var lat []time.Duration
	for _, w := range p.writes {
		if w.err == nil {
			lat = append(lat, w.lat)
		}
	}
	return lat
}
