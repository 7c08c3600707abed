package main

import (
	"time"

	"github.com/shc-go/shc/internal/bench"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// wireModel prices counted network work with an rpc.Config's constants,
// the way rpc.Network charges it when the config is live: ConnLatency per
// dial, CallLatency per call, and payload bytes (request plus response) at
// BytesPerSecond. Timed runs use a zero-cost network, so this is the only
// place modeled network time appears; it is reported beside wall time and
// never slept.
type wireModel struct{ cfg rpc.Config }

// defaultWire uses the constants the repository's experiments charge.
func defaultWire() wireModel { return wireModel{cfg: bench.DefaultRPC()} }

// cost prices dials, calls and payload bytes.
func (w wireModel) cost(dials, calls, bytes int64) time.Duration {
	d := time.Duration(dials)*w.cfg.ConnLatency + time.Duration(calls)*w.cfg.CallLatency
	if w.cfg.BytesPerSecond > 0 {
		d += time.Duration(float64(bytes) / float64(w.cfg.BytesPerSecond) * float64(time.Second))
	}
	return d
}

// costOf prices the network work recorded in a counter set.
func (w wireModel) costOf(c map[string]int64) time.Duration {
	return w.cost(c[metrics.ConnectionsCreated], c[metrics.RPCCalls],
		c[metrics.RPCBytesSent]+c[metrics.RPCBytesReceived])
}
