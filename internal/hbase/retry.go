package hbase

import (
	"context"
	"errors"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

// RetryPolicy governs how the client retries operations that fail
// recoverably: stale region locations (ErrNotServing), unreachable or
// killed hosts (rpc.ErrHostDown, rpc.ErrConnClosed), and saturated servers
// shedding load (ErrServerBusy, ErrMemstoreFull). Every retrying loop —
// point operations, buffered-mutator flushes, paged scans and SHC's fused
// partition scans — applies it through one step, Retry.Step. The zero value
// means "use defaults".
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation, first included
	// (default 4). Retries stop — and the last error surfaces — once it is
	// reached, so operations against a permanently dead cluster still fail.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 50ms).
	MaxBackoff time.Duration
	// Deadline bounds how long an operation keeps retrying, counted from
	// its first failed attempt; 0 means attempts alone bound it. A paged
	// scan counts each page separately: a page that succeeds resets it.
	Deadline time.Duration
	// JitterSeed seeds the deterministic jitter RNG (default 1), so a fixed
	// policy, seed, and failure schedule back off identically across runs.
	JitterSeed int64
	// Sleep performs the backoff; tests inject a recorder. When nil the
	// policy sleeps with a context-aware timer, so a cancelled caller never
	// waits out a backoff.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	return p
}

// pause sleeps d under ctx: an injected Sleep (test recorder) runs as-is,
// the default path aborts as soon as ctx is done. Returns ctx's error when
// the wait was cut short.
func (p RetryPolicy) pause(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	return rpc.SleepContext(ctx, d)
}

// backoff computes the pre-jitter delay before retry attempt n (1-based):
// BaseBackoff doubling per attempt, capped at MaxBackoff.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// IsRetryable reports whether err is worth retrying against refreshed meta:
// the region is served elsewhere (split, balance, failover reassignment),
// its host stopped answering and the master may be reassigning it, or the
// server shed the request under load and will accept it after a backoff.
//
// Context errors are permanent by definition: a deadline that already
// passed or a caller that cancelled cannot be helped by another attempt,
// so they surface immediately instead of burning the remaining attempts.
func IsRetryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, ErrNotServing) || errors.Is(err, ErrFenced) || errors.Is(err, ErrServerBusy) ||
		errors.Is(err, ErrMemstoreFull) || errors.Is(err, ErrNoMaster) || isUnreachable(err)
}

// Retry carries one operation through the client's retry policy: its
// failed attempts since the last success and when the first of them
// failed. Every retrying loop shares its Step, so the classification of a
// failure is written once.
type Retry struct {
	c     *Client
	table string
	max   int
	n     int       // failed attempts since the last success
	first time.Time // when the first of them failed
}

// NewRetry starts retry state for an operation on table's regions under
// the client's policy.
func (c *Client) NewRetry(table string) Retry {
	return Retry{c: c, table: table, max: c.retry.MaxAttempts}
}

// Reset records a successful attempt: the next failure starts a fresh
// attempt count and deadline.
func (r *Retry) Reset() { r.n = 0 }

// Step handles err, the failure of the latest attempt. It returns err as
// stop when the caller must give up: err is not retryable, the attempts
// are used up, or the policy's Deadline has passed. Otherwise it counts the
// retry, annotates the caller's span, invalidates the table's cached
// locations, backs off with the client's seeded jitter, and returns
// relocate = true: the caller re-resolves locations before its next
// attempt. A server that only shed load (ErrServerBusy, ErrMemstoreFull)
// still hosts the region, so its locations stay cached and relocate is
// false. A backoff cut short by ctx returns ctx's error as stop.
func (r *Retry) Step(ctx context.Context, err error) (relocate bool, stop error) {
	if !IsRetryable(err) {
		return false, err
	}
	r.n++
	if r.n == 1 {
		r.first = time.Now()
	}
	p := &r.c.retry
	if r.n >= r.max || (p.Deadline > 0 && time.Since(r.first) >= p.Deadline) {
		return false, err
	}
	metrics.Scoped(ctx, r.c.net.Meter()).Inc(metrics.ClientRetries)
	trace.SpanFromContext(ctx).Annotate("retry %d: %v", r.n, err)
	relocate = !errors.Is(err, ErrServerBusy) && !errors.Is(err, ErrMemstoreFull)
	if relocate {
		r.c.InvalidateRegions(r.table)
	}
	if perr := r.c.retryPause(ctx, r.n); perr != nil {
		return false, perr
	}
	return relocate, nil
}

// retryPause sleeps the policy's jittered backoff before retry attempt n
// (1-based), stopping early — and returning the context's error — if ctx is
// done first.
func (c *Client) retryPause(ctx context.Context, attempt int) error {
	c.retryMu.Lock()
	jitter := 0.5 + 0.5*c.retryRng.Float64()
	c.retryMu.Unlock()
	return c.retry.pause(ctx, time.Duration(float64(c.retry.backoff(attempt))*jitter))
}
