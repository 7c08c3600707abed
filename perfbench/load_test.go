package main

import (
	"testing"
	"time"
)

func TestOpenLoopReportsLatenessWhenStalled(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 45 * time.Millisecond
	start := time.Now()
	ws := openLoop(start, start.Add(10*interval), interval, func(i int) (int, error) {
		if i == 2 {
			time.Sleep(stall)
		}
		return 1, nil
	})
	if len(ws) != 10 {
		t.Fatalf("sent %d batches, want 10 on the fixed schedule", len(ws))
	}
	for i, w := range ws {
		if w.lat < w.lag {
			t.Errorf("batch %d: latency %v below its lateness %v", i, w.lat, w.lag)
		}
	}
	// Batch 2 took 45 ms, so batch 3 (due 10 ms after it) left >= 35 ms late,
	// and its latency, timed from when it was due, includes that wait.
	if ws[3].lag < stall-interval {
		t.Errorf("batch after the stall was %v late, want >= %v", ws[3].lag, stall-interval)
	}
	if ws[2].lat < stall {
		t.Errorf("stalled batch latency %v, want >= %v", ws[2].lat, stall)
	}
	if ws[9].lag > interval {
		t.Errorf("writer never caught up: last batch %v late", ws[9].lag)
	}
}
