package shard

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// Exactly-once mutations. The router mints one idempotency token per
// client-originated mutation — its client ID plus a monotonic op sequence
// — and Router.call replays the SAME token after a failover-worthy
// failure, ambiguous reply-lost outcomes included: the server side
// memoizes each tokened outcome (see tuplespace memo.go), so a replay
// returns the original result instead of re-executing. This file holds
// what the replays draw on — the shared budget, the tokens, the per-op
// schedule — and a lease's renew and cancel; the decision table and the
// one retry loop are in call.go.

// clientID names a router's token namespace: its Seed and the instant it
// was built, on its own clock. Under the virtual clock that replays with
// the run — no process-global counter leaks one run's router count into
// the next run's tokens, and so into their jittered retry schedules — and
// on the real clock it differs across restarts, so a restarted process
// never has its new mutations answered from a predecessor's memos, which
// outlive it on the WAL and the standby. Base 36 keeps the nanoseconds to
// at most 13 bytes on every tokened op.
func clientID(seed string, at time.Time) string {
	return seed + "@" + strconv.FormatUint(uint64(at.UnixNano()), 36)
}

// RetryBudget is the token bucket bounding a router's total retry volume;
// every router builds its own. Every successful call — soft no-match
// replies included, the shard answered — deposits ratio tokens, capped
// at max; every retry attempt withdraws one. When the bucket runs dry
// retries are denied (metrics.CounterRetryBudgetDenied) and the last
// error surfaces instead, so a cluster-wide failure cannot amplify
// offered load into a retry storm: sustained retry throughput is capped
// at ratio times the success throughput.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// The budget every router starts with: ten retries, refilled by one per
// ten successes.
const (
	defaultRetryTokens = 10
	defaultRetryRatio  = 0.1
)

// newRetryBudget returns a budget holding at most max tokens that refills
// ratio tokens per observed success. The bucket starts full so cold-start
// failures can still retry.
func newRetryBudget(max int, ratio float64) *RetryBudget {
	return &RetryBudget{tokens: float64(max), max: float64(max), ratio: ratio}
}

// Allow withdraws one retry token, reporting false when the bucket is
// empty.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Success deposits one success's worth of refill.
func (b *RetryBudget) Success() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Tokens reports the current balance (diagnostics).
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// spendRetry withdraws one retry from the shared budget, counting the
// denial when the bucket is dry. Every replay — a tokened one and a read's
// single retry after a failover alike — spends here first.
func (r *Router) spendRetry() bool {
	if r.budget.Allow() {
		return true
	}
	r.countRetry(metrics.CounterRetryBudgetDenied)
	return false
}

// mint returns a fresh op token.
func (r *Router) mint() tuplespace.OpToken {
	return tuplespace.OpToken{Client: r.clientID, Seq: r.tokSeq.Add(1)}
}

// token picks the idempotency token op carries to its shard. Reads carry
// none. Every mutation does, under a transaction too: the router never
// replays that one, but the shard answers a network redelivery of it. A
// mutation one shard can satisfy keeps the caller's own token
// (space.Op.Token) when it has one; a scan always mints per shard — a
// token's effect lives on one shard, so it must never be replayed on
// another.
func (r *Router) token(op space.Op, scan bool) tuplespace.OpToken {
	switch {
	case !op.Kind.Mutates():
		return tuplespace.OpToken{}
	case !scan && !op.Token.Zero():
		return op.Token
	}
	return r.mint()
}

func (r *Router) countRetry(name string) {
	if r.opts.Counters != nil {
		r.opts.Counters.Inc(name)
	}
}

// policy is the unified per-op retry schedule, seeded from the token so
// backoff jitter replays identically under the virtual clock.
func (r *Router) policy(tok tuplespace.OpToken) transport.Backoff {
	b := retryPolicy
	b.Clock = r.opts.Clock
	b.Jitter = true
	b.Seed = int64(hash64(tok.String()) | 1)
	return b
}

// leaseOp serves Renew/Cancel on the shard handle the lease was issued on
// (see issue), so a Cancel can carry a token and retry reply-lost outcomes
// against the same service connection — a handle, not a ring position, so
// no breaker gates it. A Cancel is tokened and replayed like any mutation;
// a Renew is never replayed. Service lease IDs do not survive failover, so
// a cancel retried across a promotion still surfaces ErrLeaseExpired
// (DESIGN §7).
func (r *Router) leaseOp(op space.Op) error {
	sp := op.Lease.Shard()
	if sp == nil {
		return errors.New("shard: lease was not written through a router")
	}
	if op.Kind == space.OpCancel && op.Token.Zero() {
		op.Token = r.mint()
	}
	try := func() error {
		_, err := sp.Do(op)
		return err
	}
	err := try()
	if op.Token.Zero() || !replayable(op, err) {
		return err
	}
	return r.replay(op, "", err, func() (error, bool) {
		r.countRetry(metrics.CounterRetryAttempts)
		return try(), true
	})
}
