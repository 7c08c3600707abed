package main

import (
	"context"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

func TestWireModelUsesDefaultConstants(t *testing.T) {
	// 2 dials × 200 µs + 10 calls × 20 µs + 1 GiB at 1 GiB/s.
	got := defaultWire().cost(2, 10, 1<<30)
	want := 400*time.Microsecond + 200*time.Microsecond + time.Second
	if got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

// TestWireModelMatchesNetworkCharge runs a live rpc.Network, which sleeps
// what it charges, and checks that pricing its counters gives that sleep.
// The constants are large so timer slack stays small beside them.
func TestWireModelMatchesNetworkCharge(t *testing.T) {
	cfg := rpc.Config{ConnLatency: 40 * time.Millisecond, CallLatency: 15 * time.Millisecond, BytesPerSecond: 1 << 20}
	meter := metrics.NewRegistry()
	net := rpc.NewNetwork(cfg, meter)
	if err := net.AddHost("h"); err != nil {
		t.Fatal(err)
	}
	resp := make(rpc.Bytes, 50<<10)
	if err := net.Handle("h", "Echo", func(context.Context, rpc.Message) (rpc.Message, error) { return resp, nil }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn, err := net.Dial("h")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := conn.Call("Echo", make(rpc.Bytes, 10<<10)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	c := meter.Snapshot()
	if c[metrics.ConnectionsCreated] != 1 || c[metrics.RPCCalls] != 3 ||
		c[metrics.RPCBytesSent]+c[metrics.RPCBytesReceived] != 3*60<<10 {
		t.Fatalf("counters = %v", c)
	}
	model := wireModel{cfg: cfg}.costOf(c)
	want := cfg.ConnLatency + 3*(cfg.CallLatency+time.Duration(float64(60<<10)/float64(1<<20)*float64(time.Second)))
	if model != want {
		t.Fatalf("model = %v, want %v", model, want)
	}
	if elapsed < model || elapsed > model+40*time.Millisecond {
		t.Fatalf("network charged %v, model says %v", elapsed, model)
	}
}
