package shard

import (
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
)

// One call per ring position. Every routed operation reaches a shard
// through Router.call, which drives one op at one ring position — the ID,
// whatever handle currently serves it — to a definite outcome. The routes
// in router.go decide only which position(s), in what order, and how
// results merge; which token the op carries and what happens when the
// shard fails is decided here, once, by replayable and the schedule call
// reads off the op. A blocking lookup's rounds are the wait loop's
// (Router.lookup), which issues its one candidate's op itself, so its
// rows come last (DESIGN §13):
//
//	op                      error                   replay?         schedule
//	any                     not failoverWorthy      no              —
//	under a caller txn      any                     no              the commit is the retry unit
//	read / count / begin    failover-worthy         yes             once, only after tryFailover retargeted
//	mutation (tokened)      failover-worthy,        yes, same token retryPolicy attempts, seeded full-jitter
//	                        ambiguous or not                        backoff (a scan probe: once, if retargeted
//	                                                                or ambiguous — the route's next round retries)
//	blocking, one           clean timeout,          yes, same token re-resolve and re-issue at once; one slice
//	candidate (keyed)       wait left                               (r.slice) per issue, so the op follows its key
//	blocking, one           hard, a cure possible   poll            re-resolve and re-issue every r.poll;
//	candidate, no txn       (Failover set,                          ErrTimeout joined with the ShardError at the deadline
//	                        ambiguous, ErrClosed)
//	blocking, several       no match, or a          next round      sweep, park hints one slice, take once on a wake;
//	candidates              member failed                           waits out the slice unless it took; ends early
//	                                                                only when every member failed
//
// Every mutation carries a token (token), so none outside a caller
// transaction is ever left with an ambiguous outcome it may not replay (one
// inside is never replayed; its token answers a redelivery). Every
// replay is charged to the router's RetryBudget first, so a cluster-wide
// failure cannot amplify offered load into a retry storm.

// where addresses one ring position and says how it is re-resolved between
// attempts: by key through the current ring (reshard migration ships a
// bucket's memo slice with its entries, so a token may follow its key), or
// pinned to one ID — the shard that may already hold the op's effect — in
// which case the call stops if that ID left the ring.
type where struct {
	key   string
	keyed bool
	id    string
	// scan marks one of several positions a route is walking (sweep, wait
	// hint, bulk walk). The route is its own retry loop, so the call comes
	// back after at most one replay.
	scan bool
}

func (w where) resolve(v *view) (Shard, bool) {
	id := w.id
	if w.keyed {
		id = v.ring.get(w.key)
	}
	sp, ok := v.shards[id]
	return Shard{ID: id, Space: sp}, ok
}

// replayable is the router's one answer to "may op be issued again after
// err?" — the replay? column above.
func replayable(op space.Op, err error) bool {
	return failoverWorthy(err) && (op.Txn == nil || op.Kind == space.OpCommit || op.Kind == space.OpAbort)
}

// call performs op at position w, resolved through v for the first attempt
// (the route's snapshot, so one op never straddles two rings) and through
// the live view for every later one. It returns the shard the last attempt
// ran on; hard errors come back tagged with it as a ShardError.
func (r *Router) call(v *view, w where, op space.Op) (space.Result, Shard, error) {
	op.Token = r.token(op, w.scan)
	s, _ := w.resolve(v)
	op, s, err := r.ready(v, s, op)
	if err != nil {
		return space.Result{}, s, err
	}
	res, err := r.issue(s, op)
	switch tok := op.Token; {
	case !replayable(op, err):
		if failoverWorthy(err) {
			r.tryFailover(s.ID) // the next op reaches the promoted primary
		}
	case tok.Zero() || w.scan:
		r.noteAmbiguous(s.ID, tok, err)
		if (r.tryFailover(s.ID) || !tok.Zero() && ambiguous(err)) && r.spendRetry() {
			if ns, ok := w.resolve(r.snapshot()); ok {
				s = ns
				res, err = r.reissue(s, op)
			}
		}
	default:
		err = r.replay(op, s.ID, err, func() (e error, tried bool) {
			ns, ok := w.resolve(r.snapshot())
			if ok && r.tryFailover(ns.ID) {
				ns, ok = w.resolve(r.snapshot())
			}
			if !ok {
				return nil, false
			}
			s = ns
			res, e = r.reissue(s, op)
			return e, true
		})
	}
	return res, s, wrapShard(s.ID, err)
}

// ready prepares op for one issue on s: a caller's transaction is bound to
// its sub-transaction there, which may move the op to the handle that
// opened it, and s's breaker must admit the call.
func (r *Router) ready(v *view, s Shard, op space.Op) (space.Op, Shard, error) {
	var err error
	if op.Txn != nil {
		if op.Txn, s, err = r.sub(op.Txn, v, s); err != nil {
			return op, s, err
		}
	}
	return op, s, wrapShard(s.ID, r.allow(s.ID))
}

// issue sends op to s once, feeds the outcome to the position's breaker
// and the retry budget, and binds a written lease to the handle that
// produced it (see routerLease).
func (r *Router) issue(s Shard, op space.Op) (space.Result, error) {
	res, err := s.Space.Do(op)
	r.observe(s.ID, err)
	if res.Lease != nil {
		res.Lease = &routerLease{r: r, sp: s.Space, l: res.Lease}
	}
	return res, err
}

// reissue is issue for a replay. A tokened one is counted, recorded as a
// flight event, and traced as a span parented to the ring position's last
// retarget span (when a traced failover supplied one) — which is what
// stitches the exactly-once retry chain into the failover's span tree.
func (r *Router) reissue(s Shard, op space.Op) (space.Result, error) {
	if op.Token.Zero() {
		return r.issue(s, op)
	}
	r.countRetry(metrics.CounterRetryAttempts)
	start := r.opts.Clock.Now()
	res, err := r.issue(s, op)
	if r.opts.Obs != nil {
		detail := "tok " + op.Token.String()
		if err != nil {
			detail += ": " + err.Error()
		}
		parent := r.ctrl(s.ID)
		r.opts.Obs.T().RecordSince(r.opts.Clock, parent, "retry:attempt", r.opts.Seed, start)
		r.flight(obs.FlightEvent{
			Kind: obs.EventRetryAttempt, Shard: s.ID, Detail: detail,
			Trace: parent.TraceID, Span: parent.SpanID,
		})
	}
	return res, err
}

// noteAmbiguous counts and records a tokened op entering the replay path
// with its fate unknown.
func (r *Router) noteAmbiguous(id string, tok tuplespace.OpToken, err error) {
	if !tok.Zero() && ambiguous(err) {
		r.countRetry(metrics.CounterRetryAmbiguous)
		r.flight(obs.FlightEvent{Kind: obs.EventRetryAmbig, Shard: id, Detail: "tok " + tok.String()})
	}
}

// replay is the router's one retry loop: it re-drives tokened op, whose
// first attempt at ring ID id (empty for a lease's bare handle) failed
// with first, to a definite outcome
// under the per-op policy — retryPolicy attempts, seeded full-jitter
// backoff between them, each one charged to the shared budget. again
// re-issues the op once — the same op, the same token — and reports false
// when it could not even be re-addressed (its position left the ring, its
// transaction cannot be rebound), in which case the last error stands.
func (r *Router) replay(op space.Op, id string, first error, again func() (error, bool)) error {
	r.noteAmbiguous(id, op.Token, first)
	err, exhausted := first, false
	b := r.policy(op.Token)
	_ = b.Do(func() error {
		exhausted = false
		if !r.spendRetry() {
			return nil
		}
		e, tried := again()
		if !tried {
			return nil
		}
		if err = e; !replayable(op, e) {
			return nil
		}
		r.noteAmbiguous(id, op.Token, e)
		exhausted = true
		return e
	})
	if exhausted {
		r.countRetry(metrics.CounterRetryExhausted)
	}
	return err
}
