// Command perfbench is the repository's benchmark: it boots an SHC rig
// (5 region servers, TPC-DS scale 4, zero-cost simulated network), drives
// one workload through the public engine API, checks every answer against
// a reference computed in plain Go, and prints its metrics.
//
//	bash perfbench/run.sh --workload tpcds-stream --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics. With --trace 1 a second timed phase follows in which every other
// operation is traced, and the last line carries the per-layer metrics.
// Lines before it are a readable report: every percentile with its sample
// count, the writer's figures, the pinned rig settings and, for a traced
// run, which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var tr int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every random choice of the load")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds each timed phase lasts")
	fs.IntVar(&tr, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if tr != 0 && tr != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = tr == 1
	return o, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tally counts a run's operations, writes and warm-up included: every one
// is checked, so every one counts.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
}

func (t *tally) add(p *phase) {
	t.attempted += p.out.attempted
	t.failed += p.out.failed
	t.wrong += p.out.wrong
	if t.firstErr == nil {
		t.firstErr = p.out.firstErr
	}
	for _, w := range p.writes {
		t.attempted++
		if w.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = w.err
			}
		}
	}
}

func run(o options, report io.Writer) (result, error) {
	w := workloads[o.workload]
	repeats := setupRepeats
	if o.trace {
		repeats = 1 // the traced run reports no set-up time
	}
	s, setups, err := boot(repeats)
	if err != nil {
		return result{}, err
	}
	defer s.rig.Close()

	rngs := clientRNGs(o.seed, w.clients+1)
	op := w.op(s)
	var send func(int) (int, error)
	if w.writer {
		if send, err = s.rewriter(rngs[w.clients]); err != nil {
			return result{}, err
		}
	}
	rngs = rngs[:w.clients]

	// The cold first operation on the fresh rig is reported apart. The
	// timed phase runs plain for end-to-end metrics, and counted when it
	// feeds the per-layer ones.
	pr := plain
	if o.trace {
		pr = counted
	}
	var t tally
	first := newOutcome()
	firstOp := first.do(op, rngs[0], false, false)
	t.add(&phase{out: first})
	t.add(runPhase(s, op, rngs, send, w.warmup, pr))
	secs := time.Duration(o.seconds) * time.Second
	untraced := runPhase(s, op, rngs, send, secs, pr)
	t.add(untraced)

	wm := defaultWire()
	rep := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"rig": map[string]any{
			"scale": rigScale, "servers": rigServers, "executors_per_host": rigExecutorsPerHost,
			"data_seed": rigDataSeed,
			"store":     "hbase.StoreConfig defaults (256 KiB flush, compaction at 4 files, no splits)",
			"network":   "zero-cost rpc.Config{}; wire time modeled from counts, never slept",
			"wire_model": map[string]any{
				"dial_us": us(wm.cfg.ConnLatency), "call_us": us(wm.cfg.CallLatency), "bytes_per_s": wm.cfg.BytesPerSecond,
			},
			"writer": fmt.Sprintf("%d batches/s of %d rows, open loop", time.Second/writeInterval, writeBatchRows),
		},
		"first_op_ms": ms(firstOp),
		"latency":     summarize(untraced.out.lat, 0.5, 0.9, 0.99),
	}
	if w.writer {
		var lag time.Duration
		for _, ws := range untraced.writes {
			lag += ws.lag
		}
		rep["writes"] = map[string]any{
			"latency":            summarize(untraced.writeLatencies(), 0.5, 0.9, 0.99),
			"lag_ms_mean":        ratio(ms(lag), float64(len(untraced.writes))),
			"offered_rows_per_s": float64(writeBatchRows) * float64(time.Second/writeInterval),
		}
	}

	var values map[string]float64
	var defs []metricDef
	if !o.trace {
		defs = endToEnd
		setupSecs := make([]float64, len(setups))
		for i, d := range setups {
			setupSecs[i] = d.Seconds()
		}
		rep["setup_s"] = setupSecs
		if values, err = endToEndValues(untraced, setups); err != nil {
			if t.firstErr != nil {
				err = fmt.Errorf("%w: %d of %d operations failed, the first with: %v", err, t.failed, t.attempted, t.firstErr)
			}
			return result{}, err
		}
	} else {
		defs = perLayer
		// Priced from the operations' counted dials, calls and bytes. It is
		// the same on every run of a workload, so it stays out of the
		// result line, whose timings must be measured.
		rep["modeled_wire_ms_per_op"] = ratio(ms(wm.costOf(untraced.out.scoped)), float64(len(untraced.out.lat)))
		traced := runPhase(s, op, rngs, send, secs, alternating)
		t.add(traced)
		values = perLayerValues(untraced, traced, firstOp, t.attempted, t.failed)
		layers := make([]map[string]string, len(perLayer))
		for i, d := range perLayer {
			layers[i] = map[string]string{"metric": d.name, "layer": d.layer, "moves": d.moves}
		}
		rep["layers"] = layers
	}
	if t.firstErr != nil {
		rep["first_error"] = t.firstErr.Error()
	}
	if err := writeReport(report, rep); err != nil {
		return result{}, err
	}

	res := result{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func writeReport(w io.Writer, rep map[string]any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
