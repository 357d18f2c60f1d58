package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// Exactly-once mutations (Options.ExactlyOnce). The router mints one
// idempotency token per client-originated mutation — a stable client ID
// plus a monotonic op sequence — and on failover-worthy failures retries
// the SAME token under one jittered-backoff policy, ambiguous reply-lost
// outcomes included: the server side memoizes each tokened outcome (see
// tuplespace memo.go), so a replay returns the original result instead of
// re-executing. Retries never move a token across ring IDs except by key:
// a keyed op re-routes through the ring (reshard migration ships the
// bucket's memo slice with the entries), an unkeyed op stays pinned to
// the shard that may already hold its effect, and if that shard left the
// ring the retry stops and the error surfaces as in at-most-once mode.

// routerSeq distinguishes routers sharing a Seed within one process, so
// their token namespaces never collide.
var routerSeq atomic.Uint64

// RetryBudget is a token bucket bounding the router's total retry
// volume (Options.Budget). Every successful call — soft no-match
// replies included, the shard answered — deposits Ratio tokens, capped
// at Max; every retry attempt withdraws one. When the bucket runs dry
// retries are denied (metrics.CounterRetryBudgetDenied) and the last
// error surfaces instead, so a cluster-wide failure cannot amplify
// offered load into a retry storm: sustained retry throughput is capped
// at Ratio times the success throughput. One budget is typically shared
// by everything a process routes through. A nil *RetryBudget never
// denies — the zero-configuration behavior is exactly the old one.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// NewRetryBudget returns a budget holding at most max tokens (default
// 10 when <= 0) that refills ratio tokens per observed success (default
// 0.1 when <= 0, i.e. one retry per ten successes). The bucket starts
// full so cold-start failures can still retry.
func NewRetryBudget(max int, ratio float64) *RetryBudget {
	if max <= 0 {
		max = 10
	}
	if ratio <= 0 {
		ratio = 0.1
	}
	return &RetryBudget{tokens: float64(max), max: float64(max), ratio: ratio}
}

// Allow withdraws one retry token, reporting false when the bucket is
// empty. A nil budget always allows.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Success deposits one success's worth of refill. A nil budget ignores
// it.
func (b *RetryBudget) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Tokens reports the current balance (diagnostics; nil-safe).
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// spendRetry withdraws one retry from the shared budget, counting the
// denial when the bucket is dry. Every router retry path — exactly-once
// token replays and the at-most-once single retry after a failover —
// spends here before re-issuing.
func (r *Router) spendRetry() bool {
	if r.opts.Budget.Allow() {
		return true
	}
	r.countRetry(metrics.CounterRetryBudgetDenied)
	return false
}

// noteSuccess deposits one observed success into the shared budget.
func (r *Router) noteSuccess() { r.opts.Budget.Success() }

// mint returns a fresh op token, or the zero token outside exactly-once
// mode.
func (r *Router) mint() tuplespace.OpToken {
	if !r.opts.ExactlyOnce {
		return tuplespace.OpToken{}
	}
	return tuplespace.OpToken{Client: r.clientID, Seq: r.tokSeq.Add(1)}
}

// tokOf mints a token for one client-originated mutation. Transactional
// ops carry no per-op token: the transaction is the retry unit, and its
// commit gets its own token in routerTxn.finish.
func (r *Router) tokOf(t space.Txn) tuplespace.OpToken {
	if t != nil {
		return tuplespace.OpToken{}
	}
	return r.mint()
}

// tokFor picks the token for an op one shard can satisfy: none under a
// transaction, else the caller's own (space.Op.Token), else a minted one.
// Scattered ops always mint per shard (tokOf): a token's effect lives on
// one shard, so it must never be replayed on another.
func (r *Router) tokFor(op space.Op) tuplespace.OpToken {
	if op.Txn == nil && !op.Token.Zero() {
		return op.Token
	}
	return r.tokOf(op.Txn)
}

func (r *Router) countRetry(name string) {
	if r.opts.Counters != nil {
		r.opts.Counters.Inc(name)
	}
}

// retryableMut reports whether a tokened mutation should re-issue after
// err: any failover-curable hard failure, ambiguity included — the memo
// table is what makes replaying an ambiguous op safe.
func (r *Router) retryableMut(err error, tok tuplespace.OpToken) bool {
	if tok.Zero() || !failoverWorthy(err) {
		return false
	}
	if ambiguous(err) {
		r.countRetry(metrics.CounterRetryAmbiguous)
	}
	return true
}

// policy is the unified per-op retry schedule, seeded from the token so
// backoff jitter replays identically under the virtual clock.
func (r *Router) policy(tok tuplespace.OpToken) transport.Backoff {
	b := r.opts.Retry
	b.Clock = r.opts.Clock
	b.Jitter = true
	b.Seed = int64(hash64(tok.String()) | 1)
	return b
}

// rerouteMut re-resolves where a tokened mutation may retry (see the
// package comment above on token/ring-ID affinity).
func (r *Router) rerouteMut(key string, keyed bool, pinned string) (string, space.Space, bool) {
	v := r.snapshot()
	if keyed {
		id := v.ring.get(key)
		return id, v.shards[id], true
	}
	if sp, ok := v.shards[pinned]; ok {
		return pinned, sp, true
	}
	return "", nil, false
}

// retryMut drives tokened mutation op to a definite outcome after its
// first attempt failed: resolve failover, re-route, and re-issue the same
// op — same token — under the policy's per-op attempt budget with
// full-jitter backoff. It returns the last result, the ring ID of the last
// attempt (for error wrapping), and the final error.
func (r *Router) retryMut(key string, keyed bool, pinned string, op space.Op, first error) (space.Result, string, error) {
	var out space.Result
	err := first
	id := pinned
	tok := op.Token
	if ambiguous(first) {
		r.flight(obs.FlightEvent{Kind: obs.EventRetryAmbig, Shard: id, Detail: "tok " + tok.String()})
	}
	stopped := false
	b := r.policy(tok)
	_ = b.Do(func() error {
		if stopped {
			return nil
		}
		nid, _, ok := r.rerouteMut(key, keyed, pinned)
		if !ok {
			stopped = true
			return nil
		}
		id = nid
		if !r.spendRetry() {
			stopped = true
			return nil
		}
		r.tryFailover(id)
		r.countRetry(metrics.CounterRetryAttempts)
		start := r.opts.Clock.Now()
		res, e := r.do(id, r.fresh(id), op)
		r.retrySpan(id, tok, start, e)
		err = e
		if e == nil {
			out = res
			stopped = true
			return nil
		}
		if !r.retryableMut(e, tok) {
			stopped = true
			return nil
		}
		return e
	})
	if err != nil && !stopped {
		r.countRetry(metrics.CounterRetryExhausted)
	}
	return out, id, err
}

// retrySpan records one retry attempt against ring ID id: a flight event
// always, plus a span parented to the ring position's last retarget span
// (when a traced failover supplied one) — which is what stitches the
// exactly-once retry chain into the failover's span tree.
func (r *Router) retrySpan(id string, tok tuplespace.OpToken, start time.Time, e error) {
	if r.opts.Obs == nil {
		return
	}
	detail := "tok " + tok.String()
	if e != nil {
		detail += ": " + e.Error()
	}
	parent := r.ctrl(id)
	r.opts.Obs.T().RecordSince(r.opts.Clock, parent, "retry:attempt", r.opts.Seed, start)
	r.flight(obs.FlightEvent{
		Kind: obs.EventRetryAttempt, Shard: id, Detail: detail,
		Trace: parent.TraceID, Span: parent.SpanID,
	})
}

// healedOpTok is healedOp with a token attached: in exactly-once mode an
// ambiguous mutation failure becomes retryable — the retry carries the
// same token, so a duplicate execution collapses against the memo —
// where healedMut would surface it. Reads and tokenless calls keep the
// at-most-once behavior unchanged.
func (r *Router) healedOpTok(id string, mutating bool, err error, tok tuplespace.OpToken) bool {
	if !mutating || tok.Zero() {
		return r.healedOp(id, mutating, err)
	}
	if !failoverWorthy(err) {
		return false
	}
	if ambiguous(err) {
		r.countRetry(metrics.CounterRetryAmbiguous)
		r.flight(obs.FlightEvent{Kind: obs.EventRetryAmbig, Shard: id, Detail: "tok " + tok.String()})
		r.tryFailover(id)
		if !r.spendRetry() {
			// Budget dry: the ambiguity stays counted and the reply-lost
			// error surfaces instead of being silently re-driven.
			return false
		}
		r.countRetry(metrics.CounterRetryAttempts)
		return true
	}
	if r.tryFailover(id) && r.spendRetry() {
		r.countRetry(metrics.CounterRetryAttempts)
		return true
	}
	return false
}

// retryFinish re-drives one sub-transaction's tokened commit/abort op
// after a failover-worthy failure. Each attempt resolves failover and
// rebinds the transaction to the current handle: the promoted backup's
// memo table answers a commit that already executed; a transaction that
// truly died with the primary still surfaces ErrTxnInactive.
func (r *Router) retryFinish(id string, op space.Op, first error) error {
	err := first
	sub, tok := op.Txn, op.Token
	stopped := false
	b := r.policy(tok)
	_ = b.Do(func() error {
		if stopped {
			return nil
		}
		if !r.spendRetry() {
			stopped = true
			return nil
		}
		r.tryFailover(id)
		sp := r.fresh(id)
		if op.Txn = space.RebindTxn(sp, sub); op.Txn == nil {
			// The handle cannot be re-addressed (a local or wrapped
			// transaction): surface the original failure.
			stopped = true
			return nil
		}
		r.countRetry(metrics.CounterRetryAttempts)
		start := r.opts.Clock.Now()
		_, e := sp.Do(op)
		r.retrySpan(id, tok, start, e)
		r.observe(id, e)
		err = e
		if e == nil || !r.retryableMut(e, tok) {
			stopped = true
			return nil
		}
		return e
	})
	if err != nil && !stopped {
		r.countRetry(metrics.CounterRetryExhausted)
	}
	return err
}

// routerLease binds a written lease to the shard handle that produced it,
// so Renew/Cancel re-enter the router as Ops and a Cancel can carry a
// token and retry reply-lost outcomes against the same service connection.
// Service lease IDs do not survive failover, so a cancel retried across a
// promotion still surfaces ErrLeaseExpired (DESIGN §7).
type routerLease struct {
	r  *Router
	sp space.Space
	l  space.Lease
}

// Renew implements space.Lease.
func (rl *routerLease) Renew(ttl time.Duration) error {
	return rl.r.leaseOp(space.Op{Kind: space.OpRenew, Lease: rl, TTL: ttl})
}

// Cancel implements space.Lease.
func (rl *routerLease) Cancel() error {
	return rl.r.leaseOp(space.Op{Kind: space.OpCancel, Lease: rl})
}

// leaseOp serves Renew/Cancel on the lease's own shard handle. In
// exactly-once mode a Cancel is tokened and retried like any mutation.
func (r *Router) leaseOp(op space.Op) error {
	rl, ok := op.Lease.(*routerLease)
	if !ok || rl.r != r {
		return fmt.Errorf("shard: lease %T does not belong to this router", op.Lease)
	}
	op.Lease = rl.l
	if op.Kind == space.OpCancel && op.Token.Zero() {
		op.Token = r.mint()
	}
	tok := op.Token
	_, err := rl.sp.Do(op)
	if err == nil || !r.retryableMut(err, tok) {
		return err
	}
	stopped := false
	b := r.policy(tok)
	_ = b.Do(func() error {
		if stopped {
			return nil
		}
		if !r.spendRetry() {
			stopped = true
			return nil
		}
		r.countRetry(metrics.CounterRetryAttempts)
		_, e := rl.sp.Do(op)
		err = e
		if e == nil || !r.retryableMut(e, tok) {
			stopped = true
			return nil
		}
		return e
	})
	if err != nil && !stopped {
		r.countRetry(metrics.CounterRetryExhausted)
	}
	return err
}
