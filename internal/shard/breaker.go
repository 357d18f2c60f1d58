package shard

import (
	"errors"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
)

// Per-shard circuit breakers (Options.Breaker). Every routed call feeds
// its outcome into the target ring position's breaker; Threshold
// consecutive hard failures trip it open, and while open the router
// fast-fails calls at that position with ErrBreakerOpen instead of
// paying the failure latency — which is what keeps one dead or hung
// shard from stalling every scatter round for a full slice. After
// Cooldown one call is admitted as the half-open probe; its success
// closes the breaker, its failure re-opens it for another cooldown.
// Tripping also nudges failover resolution once, so a breaker opening
// on a dead primary usually heals by retargeting rather than waiting
// out the cooldown.

// ErrBreakerOpen fast-fails a call routed at a ring position whose
// circuit breaker is open. It is a hard failure (the shard did not
// serve the op) but never failover-worthy or ambiguous: the call was
// not sent, so it provably did not execute.
var ErrBreakerOpen = errors.New("shard: circuit breaker open, call fast-failed")

// BreakerConfig tunes the per-shard circuit breakers. The zero value of
// each field selects the documented default; a nil Options.Breaker
// disables breakers entirely.
type BreakerConfig struct {
	// Threshold is the consecutive hard-failure count that trips a
	// closed breaker open (default 5).
	Threshold int
	// Cooldown is how long an open breaker fast-fails before admitting a
	// single half-open probe (default 500ms). A half-open probe that
	// never reports (its caller died) is replaced after another
	// Cooldown, so a lost probe cannot wedge the breaker.
	Cooldown time.Duration
}

func (c *BreakerConfig) withDefaults() *BreakerConfig {
	out := *c
	if out.Threshold <= 0 {
		out.Threshold = 5
	}
	if out.Cooldown <= 0 {
		out.Cooldown = 500 * time.Millisecond
	}
	return &out
}

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
// else with ErrBreakerOpen. With no Options.Breaker it always allows.
func (r *Router) allow(id string) error {
	cfg := r.opts.Breaker
	if cfg == nil {
		return nil
	}
	now := r.opts.Clock.Now()
	r.posMu.Lock()
	denied := false
	if p := r.pos[id]; p != nil && p.state != bkClosed {
		// Open: fast-fail until the cooldown admits a probe. Half-open: a
		// probe is in flight, keep fast-failing — unless it never reported
		// for a whole cooldown, then admit a replacement.
		if denied = now.Sub(p.openedAt) < cfg.Cooldown; !denied {
			p.state, p.openedAt = bkHalfOpen, now
		}
	}
	r.posMu.Unlock()
	if denied {
		r.countRetry(metrics.CounterBreakerFastFail)
		return ErrBreakerOpen
	}
	return nil
}

// observe feeds one call outcome for ring ID id into its breaker and,
// on success (soft no-match conditions included — the shard answered),
// deposits into the shared retry budget.
func (r *Router) observe(id string, err error) {
	ok := err == nil || !hard(err)
	if ok {
		r.opts.Budget.Success()
	}
	cfg := r.opts.Breaker
	// Hard failures that are not failover-worthy are alive-but-refusing
	// (overload, an expired deadline) or caller-side transaction misuse:
	// proof the shard answers, or no signal about it at all.
	if cfg == nil || !ok && !failoverWorthy(err) {
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
		p.state, p.fails = bkClosed, 0
	case p.state == bkClosed:
		if p.fails++; p.fails >= cfg.Threshold {
			p.state, p.openedAt = bkOpen, now
			tripped = true
		}
	default:
		// A failed half-open probe re-opens for another cooldown; a
		// straggler admitted before the trip that fails late restarts it,
		// so the next probe waits out a full quiet period.
		p.state, p.openedAt = bkOpen, now
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
// diagnostics ("closed", "open", "half-open"; "closed" with no breaker
// configured, no recorded outcome, or an ID that is not in the ring).
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
