package shard

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// Shard pairs a stable identifier — the shard server's registered
// discovery address — with a Space handle for it. Using the registered
// address as the ring ID is what lets the master (holding direct local
// handles) and every worker (holding proxies) compute identical key
// placements.
type Shard struct {
	ID    string
	Space space.Space
	// Epoch is the replication epoch the handle was resolved at (0 when
	// the shard is unreplicated). A promoted backup re-registers under the
	// same ring ID with a higher epoch; the router only ever retargets a
	// ring position onto a strictly newer epoch.
	Epoch uint64
	// Trace is the control-plane span context the registration carried
	// (the promotion's span for a promoted backup; zero otherwise). A
	// router that retargets onto this shard parents its failover and
	// retry spans here, so the whole failover reads as one span tree.
	Trace obs.TraceContext
	// Clk is the causal-clock stamp the registration carried; observing
	// it orders the resolver's subsequent flight events after the
	// promotion that published it.
	Clk uint64
}

// Options says who a Router is and what it reports to; every field may be
// left zero.
type Options struct {
	// Clock times wait slices and poll sleeps; nil means the real clock.
	// Under the virtual clock every fan-out goroutine is spawned as a
	// registered clock process.
	Clock vclock.Clock
	// Seed offsets this router's rotation counter (e.g. the worker's node
	// name) so that concurrent routers spread their unkeyed probes and
	// round-robin writes across different shards instead of marching in
	// lockstep.
	Seed string
	// Failover, when set, resolves a ring ID to the shard's current
	// primary (typically a lookup-service query picking the registration
	// with the highest epoch). The router calls it when an operation
	// hard-fails against a shard; a resolved handle with a newer epoch
	// replaces the dead one in place, and the operation retries instead of
	// surfacing a ShardError.
	Failover func(ringID string) (Shard, error)
	// Counters, when set, receives the failover count under
	// metrics.CounterReplFailovers and the metrics.CounterRetry* family.
	Counters *metrics.Counters
	// ExactlyOnce is ignored: every router mints an idempotency token for
	// each client-originated mutation (see retry.go). The field stays only
	// until bench/ stops setting it.
	ExactlyOnce bool
	// Obs, when set, records the router's control-plane activity: flight
	// events (failover retargets, topology adoptions, token replays) in the
	// flight recorder and retry/retarget spans in the tracer, parented into
	// the promotion span the resolved registration carried. Nil keeps all
	// of it a cheap branch.
	Obs *obs.Obs
}

// Router constants. They are not options: every participant must derive
// the same DefaultLabels, and no deployment tunes the rest. In-package
// tests shrink the three a Router holds as fields (slice, poll,
// failoverBackoff).
const (
	// virtualNodes is the number of ring points per shard.
	virtualNodes = 64
	// maxFanout bounds the concurrent per-shard calls of a gather (shards
	// beyond it are covered by striding) and a wait round's hints (shards
	// beyond it by the next rounds' rotation).
	maxFanout = 8
	// defaultSlice bounds each shard-side wait of a blocking lookup's
	// round, so a lookup re-resolves its candidates at least that often.
	defaultSlice = 250 * time.Millisecond
	// defaultPoll is the pause before a blocking lookup's next round after
	// a hard failure, or after every hint of a round failed at once.
	defaultPoll = 25 * time.Millisecond
	// defaultFailoverBackoff throttles resolution attempts per ring ID, so
	// a lookup polling a dead shard does not hammer the lookup service
	// while the backup is still counting down to promotion.
	defaultFailoverBackoff = 100 * time.Millisecond
)

// retryPolicy is the per-mutation retry policy: 4 attempts, 25 ms doubling
// to 500 ms (full jitter is always applied, seeded per op so virtual-clock
// runs replay).
var retryPolicy = transport.Backoff{Attempts: 4, Initial: 25 * time.Millisecond, Max: 500 * time.Millisecond}

// view is an immutable membership snapshot. Operations grab one snapshot
// up front so a concurrent setShards never splits a single op across two
// rings.
type view struct {
	order  []string // shard IDs, sorted
	shards map[string]space.Space
	epochs map[string]uint64 // ring ID → epoch the handle was resolved at
	ring   *ring
	// labels are each member's explicit ring point labels; before the first
	// reshard they are the DefaultLabels every participant derives anyway.
	labels map[string][]string
	// topoEpoch fences topology changes: ApplyTopology only accepts a
	// strictly newer topology (0 until the first reshard).
	topoEpoch uint64
}

// Router implements space.Space over a set of shards. Entries and
// templates whose `space:"index"` key field is set route to exactly one
// shard via the consistent-hash ring; zero-key operations scatter-gather.
// A Router over a single shard — a one-member ring — sends every operation
// there; it still mints tokens and opens sub-transactions lazily. Every
// router is overload-protected: one retry budget bounds all of its
// retries (retry.go) and a circuit breaker guards each ring position
// (breaker.go).
type Router struct {
	space.Facade
	opts    Options
	budget  *RetryBudget
	breaker breaker
	// Router constants, as fields so in-package tests can shrink them.
	slice, poll, failoverBackoff time.Duration

	mu sync.RWMutex
	v  *view

	rot atomic.Uint64

	// Token namespace: clientID names this router instance, tokSeq is the
	// monotonic op sequence (see retry.go).
	clientID string
	tokSeq   atomic.Uint64

	// Per-position state — breaker, failover throttle, last retarget span —
	// for exactly the ring IDs of the current view (see position).
	posMu sync.Mutex
	pos   map[string]*position
}

// New builds a router over shards (at least one, distinct IDs).
func New(opts Options, shards []Shard) (*Router, error) {
	if opts.Clock == nil {
		opts.Clock = vclock.NewReal()
	}
	r := &Router{
		opts:            opts,
		budget:          newRetryBudget(defaultRetryTokens, defaultRetryRatio),
		breaker:         defaultBreaker,
		slice:           defaultSlice,
		poll:            defaultPoll,
		failoverBackoff: defaultFailoverBackoff,
	}
	r.Facade = space.NewFacade(r)
	r.rot.Store(hash64(r.opts.Seed))
	r.clientID = clientID(r.opts.Seed, r.opts.Clock.Now())
	if err := r.setShards(shards); err != nil {
		return nil, err
	}
	return r, nil
}

// setShards replaces the membership. Intended for growing the cluster
// between jobs: entries keyed onto a shard before a membership change are
// not migrated, so keyed lookups can miss them afterwards — add shards
// while the space holds no keyed entries. Members the router already
// knows keep their (possibly resharded) point labels; new members get the
// defaults. Label moves go through ApplyTopology.
func (r *Router) setShards(shards []Shard) error {
	if len(shards) == 0 {
		return errors.New("shard: router needs at least one shard")
	}
	v := &view{
		shards: make(map[string]space.Space, len(shards)),
		epochs: make(map[string]uint64, len(shards)),
		labels: make(map[string][]string, len(shards)),
	}
	for _, s := range shards {
		if s.Space == nil {
			return fmt.Errorf("shard: nil space for %q", s.ID)
		}
		if _, dup := v.shards[s.ID]; dup {
			return fmt.Errorf("shard: duplicate shard ID %q", s.ID)
		}
		v.shards[s.ID] = s.Space
		v.epochs[s.ID] = s.Epoch
		v.order = append(v.order, s.ID)
	}
	slices.Sort(v.order)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.v; old != nil {
		v.topoEpoch = old.topoEpoch
		for _, id := range v.order {
			if ls, ok := old.labels[id]; ok {
				v.labels[id] = ls
			}
		}
	}
	for _, id := range v.order {
		if v.labels[id] == nil {
			v.labels[id] = DefaultLabels(id, virtualNodes)
		}
	}
	v.ring = newRingLabels(v.order, v.labels)
	r.v = v
	r.syncPositions(v)
	return nil
}

// Replace swaps the Space handle for an existing shard ID without
// touching the ring — re-admitting a shard that crashed and recovered
// from its WAL under the same identity. Key placement is unchanged, so
// entries restored from the shard's log are found exactly where the ring
// already routes them.
func (r *Router) Replace(id string, sp space.Space) error {
	if sp == nil {
		return fmt.Errorf("shard: nil space for %q", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.v
	if _, ok := old.shards[id]; !ok {
		return fmt.Errorf("shard: no shard %q to replace", id)
	}
	r.v = old.with(id, sp, old.epochs[id])
	return nil
}

// with derives a view with one shard's handle (and epoch) swapped.
func (v *view) with(id string, sp space.Space, epoch uint64) *view {
	shards, epochs := maps.Clone(v.shards), maps.Clone(v.epochs)
	shards[id], epochs[id] = sp, epoch
	return &view{order: v.order, shards: shards, epochs: epochs, ring: v.ring,
		labels: v.labels, topoEpoch: v.topoEpoch}
}

func (r *Router) snapshot() *view {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.v
}

// NumShards returns the current shard count. The master reports it in
// RunMetrics.
func (r *Router) NumShards() int { return len(r.snapshot().order) }

// Shards returns the current membership snapshot.
func (r *Router) Shards() []Shard {
	v := r.snapshot()
	out := make([]Shard, 0, len(v.order))
	for _, id := range v.order {
		out = append(out, Shard{ID: id, Space: v.shards[id], Epoch: v.epochs[id]})
	}
	return out
}

// nextRot advances the rotation counter, reduced modulo n for indexing.
func (r *Router) nextRot(n int) int { return int((r.rot.Add(1) - 1) % uint64(n)) }

var _ space.Space = (*Router)(nil)

// Do implements space.Space: the operation is routed (keyed, or a
// one-shard ring) or scattered, and every per-shard step is the same Op
// re-addressed — sub-transaction, wait slice, token — and handed to that
// shard's own Do.
func (r *Router) Do(op space.Op) (res space.Result, err error) {
	switch op.Kind {
	case space.OpWrite:
		return r.write(op)
	case space.OpRead, space.OpTake, space.OpReadIfExists, space.OpTakeIfExists:
		return r.lookup(op)
	case space.OpReadAll, space.OpTakeAll:
		res.Entries, err = r.bulk(op)
	case space.OpCount:
		res.N, err = r.count(op)
	case space.OpTypeCounts:
		res.Counts, err = r.typeCounts()
	case space.OpBeginTxn:
		res.Txn = &routerTxn{r: r, ttl: op.TTL, subs: make(map[string]subTxn)}
	case space.OpCommit, space.OpAbort:
		rt, ok := op.Txn.(*routerTxn)
		if !ok || rt.r != r {
			return res, space.ErrBadTxn
		}
		err = rt.finish(op)
	case space.OpRenew, space.OpCancel:
		err = r.leaseOp(op)
	default:
		err = fmt.Errorf("shard: unknown op kind %d", op.Kind)
	}
	return res, err
}

// --- transactions ---

// routerTxn lazily opens one sub-transaction per shard touched. Commit and
// Abort complete every sub-transaction; each shard's outcome is atomic but
// cross-shard atomicity is best-effort (a crash between sub-commits can
// commit some shards and not others). Keyed task flows touch a single
// shard, so the common worker transaction degenerates to exactly one
// sub-transaction and keeps its full atomicity.
type routerTxn struct {
	r   *Router
	ttl time.Duration

	mu   sync.Mutex
	subs map[string]subTxn
	done bool
}

// subTxn is one shard's sub-transaction plus the handle it was opened on:
// its commit goes to that server, whatever the ring position resolves to
// by then.
type subTxn struct {
	sp space.Space
	tx space.Txn
}

// Commit implements space.Txn.
func (t *routerTxn) Commit() error {
	_, err := t.r.Do(space.Op{Kind: space.OpCommit, Txn: t})
	return err
}

// Abort implements space.Txn.
func (t *routerTxn) Abort() error {
	_, err := t.r.Do(space.Op{Kind: space.OpAbort, Txn: t})
	return err
}

// sub resolves caller transaction t to its sub-transaction on s, opening
// it on first touch — a call like any other: no sub-transaction state
// exists yet, so opening it against a promoted replacement is safe. It
// returns the shard the op must follow the sub-transaction to.
func (r *Router) sub(t space.Txn, v *view, s Shard) (space.Txn, Shard, error) {
	rt, ok := t.(*routerTxn)
	if !ok || rt.r != r {
		return nil, s, space.ErrBadTxn
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.done {
		return nil, s, tuplespace.ErrTxnInactive
	}
	if st, ok := rt.subs[s.ID]; ok {
		return st.tx, s, nil
	}
	res, s, err := r.call(v, where{id: s.ID}, space.Op{Kind: space.OpBeginTxn, TTL: rt.ttl})
	if err != nil {
		return nil, s, err
	}
	rt.subs[s.ID] = subTxn{sp: s.Space, tx: res.Txn}
	return res.Txn, s, nil
}

// finish completes every sub-transaction. A second, tokenless finish
// fails ErrTxnInactive; a tokened replay re-drives the sub-commits, which
// each shard answers from its memo.
func (t *routerTxn) finish(op space.Op) error {
	t.mu.Lock()
	if t.done && op.Token.Zero() {
		t.mu.Unlock()
		return tuplespace.ErrTxnInactive
	}
	t.done = true
	ids := make([]string, 0, len(t.subs))
	for id := range t.subs {
		ids = append(ids, id)
	}
	subs := t.subs
	t.mu.Unlock()
	slices.Sort(ids) // deterministic completion order
	var firstErr error
	for _, id := range ids {
		// Each sub-commit/abort carries its own token: the commit RPC is the
		// op whose reply loss must not re-execute the transaction's effects.
		sop := space.Op{Kind: op.Kind, Txn: subs[id].tx, Token: op.Token}
		if sop.Token.Zero() {
			sop.Token = t.r.mint()
		}
		if err := t.r.finishSub(id, subs[id], sop); err != nil && firstErr == nil {
			firstErr = wrapShard(id, err)
		}
	}
	return firstErr
}

// finishSub sends one sub-transaction's commit/abort to the handle it was
// opened on — a handle, not a ring position: no breaker gates it (a
// breaker must never fast-fail a commit) or hears of its outcome. It
// replays under the same predicate and loop as any call; each replay
// resolves failover and rebinds the transaction to the position's current
// handle, where the promoted backup's memo table answers a commit that
// already executed and a transaction that truly died with the primary
// still surfaces ErrTxnInactive.
func (r *Router) finishSub(id string, st subTxn, sop space.Op) error {
	_, err := st.sp.Do(sop)
	if !replayable(sop, err) {
		return err
	}
	return r.replay(sop, id, err, func() (error, bool) {
		r.tryFailover(id)
		sp := r.fresh(id)
		if sop.Txn = space.RebindTxn(sp, st.tx); sop.Txn == nil {
			// The handle cannot be re-addressed (a local or wrapped
			// transaction): surface the original failure.
			return nil, false
		}
		_, e := r.reissue(Shard{ID: id, Space: sp}, sop)
		return e, true
	})
}

// --- single-shard routed operations ---

// write routes keyed entries to the ring owner; unkeyed entries
// round-robin from the rotation counter.
func (r *Router) write(op space.Op) (space.Result, error) {
	v := r.snapshot()
	key, keyed, err := tuplespace.IndexKey(op.Entry)
	if err != nil {
		return space.Result{}, err
	}
	w := where{key: key, keyed: keyed}
	n := len(v.order)
	for i := 1; ; i++ {
		if !keyed {
			w.id = v.order[r.nextRot(n)]
		}
		res, _, err := r.call(v, w, op)
		// An unkeyed write may land anywhere: route around open breakers
		// (a fast-failed call provably was not sent) instead of failing,
		// falling through only when every shard is open.
		if keyed || i >= n || !errors.Is(err, ErrBreakerOpen) {
			return res, err
		}
	}
}

// ifExists returns the non-blocking variant of a lookup kind.
func ifExists(k space.Kind) space.Kind {
	switch k {
	case space.OpRead:
		return space.OpReadIfExists
	case space.OpTake:
		return space.OpTakeIfExists
	}
	return k
}

// lookup serves every lookup. A non-blocking one is one call on the key's
// owner (or the only member), or else a sweep of every member. A blocking
// one, with or without a caller transaction, runs the router's one wait
// loop (DESIGN §13). Each round re-snapshots the live view and resolves
// the candidates: the key's owner, or every member. One candidate is
// issued the op itself for one slice (r.slice), so a keyed lookup follows
// its key across a reshard; an unkeyed lookup on a one-member ring cannot
// move and hands the shard its whole wait in one issue. Several are swept,
// then parked on with hints, and a wake issues the round's one destructive
// op (see hint): a take removes exactly one entry and puts nothing back.
// A wider round waits out its slice unless it took, and ends early only
// when every member failed.
func (r *Router) lookup(op space.Op) (space.Result, error) {
	v := r.snapshot()
	key, keyed, err := tuplespace.IndexKey(op.Entry)
	if err != nil {
		return space.Result{}, err
	}
	if !op.Kind.Blocks() {
		if keyed || len(v.order) == 1 {
			res, _, err := r.call(v, where{key: key, keyed: keyed, id: v.order[0]}, op)
			return res, err
		}
		res, err, _ := r.sweep(v, op)
		return res, err
	}
	clk := r.opts.Clock
	end, rem := clk.Now().Add(op.Wait), op.Wait // rem is the wait left; <= 0 waits for ever
	var (
		res      space.Result
		lastHard error
		closed   space.Space // the handle a cureless ErrClosed came from
		grace    time.Time   // how long to wait for something to replace it
	)
	for {
		one := keyed || len(v.order) == 1
		d := rem // the most this round parks: a pinned lookup's whole wait
		if (keyed || !one) && (d <= 0 || d > r.slice) {
			d = r.slice
		}
		var pause time.Duration
		if !one {
			var hards int
			if res, err, hards = r.sweep(v, op); err == nil || hards >= len(v.order) {
				return res, err // a match, or nothing left to serve from
			} else if hard(err) {
				lastHard = err
			}
			slice := clk.Now().Add(d)
			took, herr := r.hint(v, op.Entry, d, func(id string, read space.Result) bool {
				if !op.Kind.Takes() && op.Txn == nil {
					res = read // the hint was the op itself
					return true
				}
				wake := space.Op{Kind: ifExists(op.Kind), Entry: op.Entry, Txn: op.Txn}
				if res, _, err = r.call(v, where{id: id}, wake); err != nil && hard(err) {
					lastHard = err
				}
				return err == nil
			})
			if took {
				return res, nil
			} else if herr != nil {
				// Every hint failed at once (say, a browning-out shard sheds
				// reads): wait a poll rather than sweep again at once.
				lastHard, pause = herr, r.poll
			} else {
				// Each hint matched an entry another taker got first or
				// another txn read-locks, or failed: do not spin.
				pause = slice.Sub(clk.Now())
			}
		} else {
			// Minted once: a clean timeout installs no memo, and an ambiguous
			// failure is re-driven with the same token.
			op.Token = r.token(op, false)
			s, _ := where{key: key, keyed: keyed, id: v.order[0]}.resolve(v)
			if s.Space != closed {
				iop := op
				iop.Wait = d
				if iop, s, err = r.ready(v, s, iop); err == nil {
					res, err = r.issue(s, iop)
				}
			}
			if err == nil || !hard(err) {
				if !keyed || !errors.Is(err, tuplespace.ErrTimeout) {
					// Done, or the pinned wait ran out: keep any earlier
					// hard failure in the diagnostics.
					if err != nil && lastHard != nil {
						err = timeoutErr(lastHard)
					}
					return res, err
				}
			} else {
				lastHard, pause = wrapShard(s.ID, err), r.poll
				switch tok := op.Token; {
				case op.Txn != nil:
					// Never re-driven under a caller's transaction: the
					// commit is the retry unit.
					if failoverWorthy(err) {
						r.tryFailover(s.ID)
					}
					return res, lastHard
				case r.opts.Failover == nil && (tok.Zero() || !ambiguous(err)):
					// No replica to promote and no lost reply to recover: only
					// a closed handle being replaced (a merge retired it, a
					// restart swaps a recovered space in behind the same ID)
					// cures this. ErrClosed guarantees the op did not execute,
					// so re-parking is safe even for a take; after ten poll
					// rounds with no replacement the close is a shutdown.
					if s.Space != closed {
						closed, grace, pause = s.Space, clk.Now().Add(10*pause), 0
					}
					if !errors.Is(err, tuplespace.ErrClosed) || !clk.Now().Before(grace) {
						return res, lastHard
					}
				case !tok.Zero() && ambiguous(err):
					// Go straight around with the same token — unless the
					// budget is dry: then the ambiguity surfaces (still
					// counted) instead of being re-driven.
					r.noteAmbiguous(s.ID, tok, err)
					if !r.spendRetry() {
						return res, lastHard
					}
					r.countRetry(metrics.CounterRetryAttempts)
					r.tryFailover(s.ID)
					pause = 0
				case failoverWorthy(err) && r.tryFailover(s.ID) && r.spendRetry():
					pause = 0
				}
				// Otherwise no replacement yet: poll until one promotes or
				// time runs out.
			}
		}
		if op.Wait > 0 {
			pause = min(pause, end.Sub(clk.Now()))
		}
		clk.Sleep(pause)
		if rem = end.Sub(clk.Now()); op.Wait > 0 && rem <= 0 {
			return space.Result{}, timeoutErr(lastHard)
		}
		v = r.snapshot()
	}
}

// hard reports whether err is a failure, as opposed to the no-entry-yet
// conditions that just mean "keep looking".
func hard(err error) bool {
	return !errors.Is(err, tuplespace.ErrNoMatch) && !errors.Is(err, tuplespace.ErrTimeout)
}

// ShardError is a hard failure from one identified shard during a routed or
// scattered operation — a dead listener, a partitioned address, an injected
// fault. Callers that need the failing shard use errors.As; errors.Is still
// sees the underlying cause through Unwrap. When only some shards fail, a
// blocking lookup keeps serving from the healthy ones and surfaces the
// ShardError joined with ErrTimeout at its deadline, so retry loops that
// treat timeouts as benign (the master's collect loop) keep running while
// diagnostics remain one errors.As away.
type ShardError struct {
	Shard string // the shard's ring ID (its registered discovery address)
	Err   error
}

// Error implements error.
func (e *ShardError) Error() string { return fmt.Sprintf("shard %s: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// wrapShard tags a hard error with the shard it came from; soft conditions
// (no match, timeout) pass through untouched so matching on the sentinels
// stays cheap.
func wrapShard(id string, err error) error {
	if err == nil || !hard(err) {
		return err
	}
	var se *ShardError
	if errors.As(err, &se) {
		return err
	}
	return &ShardError{Shard: id, Err: err}
}

// --- scatter-gather ---

// sweep makes one non-blocking pass of lookup op over all shards in
// rotation order and returns the first match. Alongside the error it
// reports how many shards hard-failed, so blocking callers can tell "one
// shard is partitioned, keep serving from the rest" apart from "every
// shard is gone, fail fast".
func (r *Router) sweep(v *view, op space.Op) (space.Result, error, int) {
	n := len(v.order)
	start := r.nextRot(n)
	op.Kind, op.Wait = ifExists(op.Kind), 0
	var firstErr error
	hards := 0
	for i := 0; i < n; i++ {
		res, _, err := r.call(v, where{id: v.order[(start+i)%n], scan: true}, op)
		if err == nil {
			return res, nil, 0
		}
		if !hard(err) {
			continue
		}
		var se *ShardError
		if !errors.As(err, &se) {
			// Not a shard-side failure (bad or inactive caller txn):
			// poisons the whole op.
			return space.Result{}, err, n
		}
		// One shard failing — dead, partitioned, breaker open, refusing its
		// sub-transaction — is a per-shard hard failure; the rest can still
		// serve the sweep.
		hards++
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return space.Result{}, firstErr, hards
	}
	return space.Result{}, tuplespace.ErrNoMatch, 0
}

// timeoutErr resolves a blocking lookup's deadline expiry: plain ErrTimeout
// normally, or — when some shards hard-failed while the healthy rest were
// polled dry — ErrTimeout joined with the ShardError. errors.Is(err,
// ErrTimeout) still holds (retry loops like the master's collect stay
// alive), and errors.As digs out which shard was unreachable.
func timeoutErr(lastHard error) error {
	if lastHard != nil {
		return errors.Join(tuplespace.ErrTimeout, lastHard)
	}
	return tuplespace.ErrTimeout
}

// hint parks a non-destructive read of tmpl, outside any transaction, for
// d on each of up to maxFanout members from a rotating start, and hands
// each member whose read matched, and what it read, to take until take
// succeeds or every read has ended. A match is only a hint: another taker
// may get there first, or another txn may hold a read lock on the entry.
// No member is read twice in a round. err is the first hard failure when
// every read failed hard.
func (r *Router) hint(v *view, tmpl tuplespace.Entry, d time.Duration, take func(id string, read space.Result) bool) (bool, error) {
	clk, n := r.opts.Clock, len(v.order)
	k, start := min(maxFanout, n), r.nextRot(n)
	read := space.Op{Kind: space.OpRead, Entry: tmpl, Wait: d}
	var (
		mu          sync.Mutex
		woke        []int // the reads that matched, by index
		got         = make([]space.Result, k)
		left, hards = k, 0
		firstErr    error
		parked      vclock.Waiter // the waiter the caller is parked on, if any
	)
	g := vclock.NewGroup(clk)
	for i := 0; i < k; i++ {
		g.Go(func() {
			res, _, err := r.call(v, where{id: v.order[(start+i)%n], scan: true}, read)
			mu.Lock()
			left--
			if err == nil {
				woke, got[i] = append(woke, i), res
			} else if hard(err) {
				if hards++; firstErr == nil {
					firstErr = err
				}
			}
			w := parked
			parked = nil
			mu.Unlock()
			if w != nil {
				w.Wake()
			}
		})
	}
	mu.Lock()
	defer mu.Unlock()
	for {
		for len(woke) == 0 && left > 0 {
			w := clk.NewWaiter()
			parked = w
			mu.Unlock()
			w.Wait(0) // bounded: every read's wait is itself bounded by d
			mu.Lock()
		}
		if len(woke) == 0 {
			if hards < k {
				firstErr = nil
			}
			return false, firstErr
		}
		i := woke[0]
		woke = woke[1:]
		mu.Unlock()
		ok := take(v.order[(start+i)%n], got[i])
		mu.Lock()
		if ok {
			return true, nil
		}
	}
}

// --- bulk, count, balance, notify ---

// bulk serves ReadAll/TakeAll. A keyed template addresses one shard;
// unbounded zero-key reads gather concurrently across shards; bounded
// (Max > 0) reads and all zero-key takes walk shards sequentially, so the
// budget is respected and a destructive gather never over-takes and has
// to undo.
func (r *Router) bulk(op space.Op) ([]tuplespace.Entry, error) {
	v := r.snapshot()
	key, keyed, err := tuplespace.IndexKey(op.Entry)
	if err != nil {
		return nil, err
	}
	take, max := op.Kind.Takes(), op.Max
	// one runs op at w with budget rem.
	one := func(w where, rem int) ([]tuplespace.Entry, error) {
		sop := op
		sop.Max = rem
		res, _, err := r.call(v, w, sop)
		return res.Entries, err
	}
	if keyed || len(v.order) == 1 {
		return one(where{key: key, keyed: keyed, id: v.order[0]}, max)
	}
	if take || max > 0 {
		// Sequential budgeted walk.
		var out []tuplespace.Entry
		n := len(v.order)
		start := r.nextRot(n)
		for i := 0; i < n; i++ {
			rem := 0
			if max > 0 {
				if rem = max - len(out); rem <= 0 {
					break
				}
			}
			es, err := one(where{id: v.order[(start+i)%n], scan: true}, rem)
			if err != nil {
				return out, err
			}
			out = append(out, es...)
		}
		return out, nil
	}
	// Unbounded read: concurrent gather, merged in shard order.
	per, err := gather(r, v, func(id string) ([]tuplespace.Entry, error) {
		return one(where{id: id, scan: true}, 0)
	})
	return slices.Concat(per...), err
}

// count counts one shard for a keyed template, otherwise sums the
// per-shard counts concurrently.
func (r *Router) count(op space.Op) (int, error) {
	v := r.snapshot()
	key, keyed, err := tuplespace.IndexKey(op.Entry)
	if err != nil {
		return 0, err
	}
	if keyed {
		res, _, err := r.call(v, where{key: key, keyed: true}, op)
		return res.N, err
	}
	per, err := gather(r, v, func(id string) (int, error) {
		res, _, err := r.call(v, where{id: id}, op)
		return res.N, err
	})
	total := 0
	for _, n := range per {
		total += n
	}
	return total, err
}

// gather runs one(id) for every shard of v with at most maxFanout concurrent
// calls and returns the results in shard order; the first error in shard
// order wins and discards them.
func gather[T any](r *Router, v *view, one func(id string) (T, error)) ([]T, error) {
	n := len(v.order)
	out, errs := make([]T, n), make([]error, n)
	fanout := min(maxFanout, n)
	g := vclock.NewGroup(r.opts.Clock)
	for j := 0; j < fanout; j++ {
		g.Go(func() {
			for i := j; i < n; i += fanout {
				out[i], errs[i] = one(v.order[i])
			}
		})
	}
	g.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// typeCounts merges live-entry counts per type across all shards.
func (r *Router) typeCounts() (map[string]int, error) {
	per, err := r.ShardCounts()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, counts := range per {
		for name, n := range counts {
			out[name] += n
		}
	}
	return out, nil
}

// ShardCounts returns per-type entry counts keyed by shard ID — the
// balance view operators use to see how the ring is spreading entries.
func (r *Router) ShardCounts() (map[string]map[string]int, error) {
	v := r.snapshot()
	per, err := gather(r, v, func(id string) (map[string]int, error) {
		res, _, err := r.call(v, where{id: id}, space.Op{Kind: space.OpTypeCounts})
		return res.Counts, err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]int, len(v.order))
	for i, id := range v.order {
		out[id] = per[i]
	}
	return out, nil
}

// Close implements space.Space: it closes every shard handle.
func (r *Router) Close() error {
	v := r.snapshot()
	var firstErr error
	for _, id := range v.order {
		if err := v.shards[id].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
