package shard

import (
	"errors"
	"fmt"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
)

// Per-shard circuit breakers, armed in every router. Every routed call
// feeds its outcome into the target ring position's breaker; threshold
// consecutive failover-worthy failures trip it open, and while open the
// router fast-fails calls at that position with ErrBreakerOpen instead of
// paying the failure latency — which is what keeps one dead or hung shard
// from stalling every round of a blocking lookup for a full slice. After cooldown one
// call is admitted as the half-open probe; its success closes the breaker,
// its failure re-opens it for another cooldown. Tripping also nudges
// failover resolution once, so a breaker opening on a dead primary usually
// heals by retargeting rather than waiting out the cooldown.

// ErrBreakerOpen fast-fails a call routed at a ring position whose
// circuit breaker is open; the fast-fail wraps it together with the
// failure that opened the breaker. It is a hard failure (the shard did not
// serve the op) but never failover-worthy or ambiguous: the call was not
// sent, so it provably did not execute.
var ErrBreakerOpen = errors.New("shard: circuit breaker open, call fast-failed")

// breaker tunes a router's circuit breakers: threshold is the consecutive
// failure count that trips a closed breaker open; cooldown is how long an
// open breaker fast-fails before admitting a single half-open probe. A
// half-open probe that never reports (its caller died) is replaced after
// another cooldown, so a lost probe cannot wedge the breaker.
type breaker struct {
	threshold int
	cooldown  time.Duration
}

// defaultBreaker is every router's breaker tuning.
var defaultBreaker = breaker{threshold: 5, cooldown: 500 * time.Millisecond}

const (
	bkClosed = iota
	bkOpen
	bkHalfOpen
)

// position is the router's mutable state for one ring ID, whatever handle
// currently serves it: the circuit breaker, the failover-resolution
// throttle and the span of the last retarget. Guarded by the router's
// posMu. Positions exist for exactly the members of the current view —
// syncPositions is the one place they are created and dropped — so an ID
// that left the ring reads as a closed breaker and cannot be retargeted.
type position struct {
	state int // bkClosed, bkOpen or bkHalfOpen
	// fails counts consecutive hard failures while closed.
	fails int
	// openedAt is when the breaker last opened, or — in the half-open
	// state — when the current probe was admitted.
	openedAt time.Time
	// cause is the failure that last opened the breaker; a fast-fail
	// carries it, so the caller's error still names what failed.
	cause error

	// lastResolve is the last failover resolution attempt, zero before the
	// first (see tryFailover).
	lastResolve time.Time
	// ctrl is the span context of the last traced retarget. Retry spans
	// parent to it, so a failover plus the retries it heals form one
	// connected span tree.
	ctrl obs.TraceContext
}

// syncPositions makes the position table match v's membership. Called
// with r.mu held by whoever installs a view with a new member list.
func (r *Router) syncPositions(v *view) {
	r.posMu.Lock()
	defer r.posMu.Unlock()
	next := make(map[string]*position, len(v.order))
	for _, id := range v.order {
		if next[id] = r.pos[id]; next[id] == nil {
			next[id] = &position{}
		}
	}
	r.pos = next
}

// allow reports whether a call routed at ring ID id may proceed. It
// returns nil while the breaker is closed, admits exactly one probe per
// cooldown while it is open or half-open, and fast-fails everything
// else with ErrBreakerOpen wrapping the failure that opened the breaker.
func (r *Router) allow(id string) error {
	now := r.opts.Clock.Now()
	r.posMu.Lock()
	denied := false
	var cause error
	if p := r.pos[id]; p != nil && p.state != bkClosed {
		// Open: fast-fail until the cooldown admits a probe. Half-open: a
		// probe is in flight, keep fast-failing — unless it never reported
		// for a whole cooldown, then admit a replacement.
		if denied = now.Sub(p.openedAt) < r.breaker.cooldown; denied {
			cause = p.cause
		} else {
			p.state, p.openedAt = bkHalfOpen, now
		}
	}
	r.posMu.Unlock()
	if denied {
		r.countRetry(metrics.CounterBreakerFastFail)
		return fmt.Errorf("%w: %w", ErrBreakerOpen, cause)
	}
	return nil
}

// observe feeds one call outcome for ring ID id into its breaker and,
// on success (soft no-match conditions included — the shard answered),
// deposits into the shared retry budget.
func (r *Router) observe(id string, err error) {
	ok := err == nil || !hard(err)
	if ok {
		r.budget.Success()
	}
	// Hard failures that are not failover-worthy are alive-but-refusing
	// (overload, an expired deadline) or caller-side transaction misuse:
	// proof the shard answers, or no signal about it at all.
	if !ok && !failoverWorthy(err) {
		return
	}
	now := r.opts.Clock.Now()
	r.posMu.Lock()
	p := r.pos[id]
	if p == nil {
		r.posMu.Unlock()
		return
	}
	tripped, closed := false, false
	switch {
	case ok:
		closed = p.state != bkClosed
		p.state, p.fails, p.cause = bkClosed, 0, nil
	case p.state == bkClosed:
		if p.fails++; p.fails >= r.breaker.threshold {
			p.state, p.openedAt, p.cause = bkOpen, now, err
			tripped = true
		}
	default:
		// A failed half-open probe re-opens for another cooldown; a
		// straggler admitted before the trip that fails late restarts it,
		// so the next probe waits out a full quiet period.
		p.state, p.openedAt, p.cause = bkOpen, now, err
	}
	r.posMu.Unlock()
	if tripped {
		r.countRetry(metrics.CounterBreakerOpen)
		r.flight(obs.FlightEvent{Kind: obs.EventBreakerOpen, Shard: id, Detail: err.Error()})
		// A trip is strong evidence the primary is gone: resolve failover
		// now instead of waiting for the cooldown probe to discover it.
		r.tryFailover(id)
	}
	if closed {
		r.countRetry(metrics.CounterBreakerClose)
		r.flight(obs.FlightEvent{Kind: obs.EventBreakerClose, Shard: id})
	}
}

// BreakerState reports ring ID id's breaker state as a string for
// diagnostics ("closed", "open", "half-open"; "closed" with no recorded
// outcome, or for an ID that is not in the ring).
func (r *Router) BreakerState(id string) string {
	r.posMu.Lock()
	defer r.posMu.Unlock()
	if p := r.pos[id]; p != nil {
		switch p.state {
		case bkOpen:
			return "open"
		case bkHalfOpen:
			return "half-open"
		}
	}
	return "closed"
}
