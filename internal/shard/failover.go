package shard

import (
	"errors"
	"fmt"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
)

// Failover: when a shard's primary dies and its backup promotes itself,
// the backup re-registers under the same ring ID (the original primary's
// registered address — the stable shard identity) with an incremented
// epoch. The router keeps the ring untouched and swaps only the handle
// behind the ring position, so key placement is preserved exactly as with
// Replace; blocking lookups re-snapshot the view each round and retry
// against the promoted primary instead of surfacing a ShardError. This
// file is the mechanism — Retarget, the throttled tryFailover, the two
// error classes (failoverWorthy, ambiguous); when an op is replayed after
// a failover is Router.call's decision (call.go).

// Retarget swaps the handle behind ring ID id onto a newer epoch. It is
// the failover analogue of Replace: same ring position, new server. A
// stale epoch (≤ the current one) is rejected, which makes concurrent
// resolution attempts idempotent.
func (r *Router) Retarget(id string, sp space.Space, epoch uint64) error {
	if sp == nil {
		return fmt.Errorf("shard: nil space for %q", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.v
	if _, ok := old.shards[id]; !ok {
		return fmt.Errorf("shard: no shard %q to retarget", id)
	}
	if epoch <= old.epochs[id] {
		return fmt.Errorf("shard: stale epoch %d for %q (at %d)", epoch, id, old.epochs[id])
	}
	r.v = old.with(id, sp, epoch)
	return nil
}

// tryFailover attempts to resolve a replacement primary for ring ID id
// and retarget onto it. It returns true only when the view actually
// changed. Attempts are throttled per ring ID by r.failoverBackoff; losing a
// throttle race is fine — the caller's retry re-snapshots and sees whatever
// the winning attempt installed.
func (r *Router) tryFailover(id string) bool {
	if r.opts.Failover == nil {
		return false
	}
	now := r.opts.Clock.Now()
	r.posMu.Lock()
	p := r.pos[id]
	if p == nil || !p.lastResolve.IsZero() && now.Sub(p.lastResolve) < r.failoverBackoff {
		r.posMu.Unlock()
		return false
	}
	p.lastResolve = now
	r.posMu.Unlock()

	s, err := r.opts.Failover(id)
	if err != nil || s.Space == nil {
		return false
	}
	if err := r.Retarget(id, s.Space, s.Epoch); err != nil {
		return false
	}
	r.countRetry(metrics.CounterReplFailovers)
	r.noteRetarget(id, s)
	return true
}

// noteRetarget threads a resolved shard's control-plane context into the
// router after a successful retarget: the resolved registration carried
// the promotion's span context and causal stamp. Observing the stamp
// orders this router's subsequent flight events after the promotion; the
// retarget span (a child of the promotion) becomes the parent for every
// retry this failover heals.
func (r *Router) noteRetarget(id string, s Shard) {
	r.opts.Obs.Fl().Observe(s.Clk)
	sp := r.opts.Obs.T().StartChild(r.opts.Clock, s.Trace, "failover:retarget", r.opts.Seed)
	ctx := sp.Context()
	sp.End()
	r.posMu.Lock()
	if p := r.pos[id]; p != nil && ctx.Valid() {
		p.ctrl = ctx
	}
	r.posMu.Unlock()
	r.flight(obs.FlightEvent{
		Kind: obs.EventRetarget, Shard: id, Epoch: s.Epoch,
		Trace: ctx.TraceID, Span: ctx.SpanID,
	})
}

// RetargetTraced is Retarget plus control-plane trace adoption, for
// callers that resolved the promoted shard out of band (the in-process
// promotion glue): the retarget span parents under s.Trace and the
// router's causal clock observes s.Clk, exactly as a resolver-driven
// failover would.
func (r *Router) RetargetTraced(s Shard) error {
	if err := r.Retarget(s.ID, s.Space, s.Epoch); err != nil {
		return err
	}
	r.noteRetarget(s.ID, s)
	return nil
}

// ctrl returns the last retarget span context for ring ID id (zero when
// no traced failover has retargeted it).
func (r *Router) ctrl(id string) obs.TraceContext {
	r.posMu.Lock()
	defer r.posMu.Unlock()
	if p := r.pos[id]; p != nil {
		return p.ctrl
	}
	return obs.TraceContext{}
}

// flight records one control-plane event attributed to this router's
// node (its Seed). A router without Obs records nothing.
func (r *Router) flight(ev obs.FlightEvent) {
	if r.opts.Obs == nil {
		return
	}
	ev.Node = r.opts.Seed
	r.opts.Obs.Fl().Record(r.opts.Clock, ev)
}

// failoverWorthy reports whether err is the kind of hard failure a
// promoted backup could cure. Caller-side transaction misuse is not,
// and neither are admission fast-fails: an overloaded or
// deadline-expiring shard is alive and answering — promoting its backup
// would amplify the overload into a failover storm — and a breaker-open
// fast-fail never left the router at all.
func failoverWorthy(err error) bool {
	return err != nil && hard(err) &&
		!errors.Is(err, space.ErrBadTxn) && !errors.Is(err, tuplespace.ErrTxnInactive) &&
		!errors.Is(err, tuplespace.ErrOverloaded) && !errors.Is(err, tuplespace.ErrDeadlineExpired) &&
		!errors.Is(err, ErrBreakerOpen)
}

// ambiguous reports whether err leaves the remote operation's fate
// unknown: a per-op deadline expiry means the RPC was accepted but never
// answered, so it may have executed on the old primary with only the
// reply lost. Every other hard failure here (dial refusal, ErrFenced,
// ErrUnavailable, a closed space) guarantees the mutation did not take
// effect, and so does a breaker fast-fail whatever its cause: that call
// never left the router.
func ambiguous(err error) bool {
	return errors.Is(err, space.ErrOpTimeout) && !errors.Is(err, ErrBreakerOpen)
}

// fresh returns the current handle behind ring ID id.
func (r *Router) fresh(id string) space.Space { return r.snapshot().shards[id] }
