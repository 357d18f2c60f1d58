package shard

import (
	"errors"
	"fmt"
	"sort"
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

// Options tunes a Router. The zero value of each field selects the
// documented default.
type Options struct {
	// Clock times scatter rounds and poll sleeps; nil means the real
	// clock. Under the virtual clock all scatter goroutines are spawned
	// as registered clock processes.
	Clock vclock.Clock
	// VirtualNodes is the number of ring points per shard (default 64).
	VirtualNodes int
	// Fanout bounds the number of concurrent per-shard calls in a
	// scatter (default 8). Shards beyond the fanout are covered by
	// striding.
	Fanout int
	// Slice bounds each shard-side blocking wait during a scatter round
	// (default 250ms). Losing shards time out within one slice, so a
	// first-win scatter never leaves an RPC parked behind it.
	Slice time.Duration
	// PollInterval is the sleep between sweeps when a blocking scatter
	// must run under a transaction and therefore polls (default 25ms).
	PollInterval time.Duration
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
	// FailoverBackoff throttles resolution attempts per ring ID (default
	// 100ms), so a scatter polling a dead shard does not hammer the lookup
	// service while the backup is still counting down to promotion.
	FailoverBackoff time.Duration
	// Counters, when set, receives the failover count under
	// metrics.CounterReplFailovers and, in exactly-once mode, the
	// metrics.CounterRetry* / CounterDedup* families.
	Counters *metrics.Counters
	// ExactlyOnce mints an idempotency token for every client-originated
	// mutation and retries failover-worthy failures — ambiguous reply-lost
	// outcomes included — with the same token, relying on the shard-side
	// memo table to collapse duplicate executions (see retry.go). Off by
	// default: without it ambiguous mutations surface their error
	// (at-most-once), exactly as before.
	ExactlyOnce bool
	// Retry is the unified per-mutation retry policy used in exactly-once
	// mode (attempt budget and backoff envelope; full jitter is always
	// applied, seeded per op so virtual-clock runs replay). Zero fields
	// default to 4 attempts, 25ms doubling to 500ms.
	Retry transport.Backoff
	// Obs, when set, records the router's control-plane activity: flight
	// events (failover retargets, topology adoptions, exactly-once
	// retries) in the flight recorder and retry/retarget spans in the
	// tracer, parented into the promotion span the resolved registration
	// carried. Nil keeps all of it a cheap branch.
	Obs *obs.Obs
	// Budget, when set, is the token-bucket retry budget every retry
	// path shares — exactly-once token replays and the at-most-once
	// single retry after a failover alike (see RetryBudget in retry.go).
	// Nil never denies a retry, exactly the old behavior.
	Budget *RetryBudget
	// Breaker, when set, enables per-ring-ID circuit breakers with
	// half-open probing (see breaker.go): a shard whose calls hard-fail
	// Threshold times in a row fast-fails with ErrBreakerOpen instead of
	// stalling scatter rounds. Nil disables breakers.
	Breaker *BreakerConfig
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = vclock.NewReal()
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.Fanout <= 0 {
		o.Fanout = 8
	}
	if o.Slice <= 0 {
		o.Slice = 250 * time.Millisecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 25 * time.Millisecond
	}
	if o.FailoverBackoff <= 0 {
		o.FailoverBackoff = 100 * time.Millisecond
	}
	if o.Retry.Attempts <= 0 {
		o.Retry.Attempts = 4
	}
	if o.Retry.Initial <= 0 {
		o.Retry.Initial = 25 * time.Millisecond
	}
	if o.Retry.Max <= 0 {
		o.Retry.Max = 500 * time.Millisecond
	}
	if o.Breaker != nil {
		o.Breaker = o.Breaker.withDefaults()
	}
	return o
}

// view is an immutable membership snapshot. Operations grab one snapshot
// up front so a concurrent SetShards never splits a single op across two
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
// A Router over a single shard is pure pass-through.
type Router struct {
	space.Facade
	opts Options

	mu sync.RWMutex
	v  *view

	rot atomic.Uint64

	// Exactly-once token namespace: clientID is unique per router
	// instance, tokSeq is the monotonic op sequence (see retry.go).
	clientID string
	tokSeq   atomic.Uint64

	// failover throttle state and retarget count (see failover.go).
	foMu      sync.Mutex
	foLast    map[string]time.Time
	failovers atomic.Uint64

	// Control-plane trace linkage: per ring ID, the span context of the
	// last successful retarget. Retry spans parent to it, so a failover
	// plus the retries it heals form one connected span tree.
	ctrlMu  sync.Mutex
	ctrlCtx map[string]obs.TraceContext

	// Per-ring-ID circuit breakers (see breaker.go; nil Options.Breaker
	// leaves the map unused).
	bkMu sync.Mutex
	bks  map[string]*breaker
}

// New builds a router over shards (at least one, distinct IDs).
func New(opts Options, shards []Shard) (*Router, error) {
	r := &Router{opts: opts.withDefaults()}
	r.Facade = space.NewFacade(r)
	r.rot.Store(hash64(r.opts.Seed))
	r.clientID = fmt.Sprintf("%s#%d", r.opts.Seed, routerSeq.Add(1))
	if err := r.SetShards(shards); err != nil {
		return nil, err
	}
	return r, nil
}

// SetShards replaces the membership. Intended for growing the cluster
// between jobs: entries keyed onto a shard before a membership change are
// not migrated, so keyed lookups can miss them afterwards — add shards
// while the space holds no keyed entries. Members the router already
// knows keep their (possibly resharded) point labels; new members get the
// defaults. Label moves go through ApplyTopology.
func (r *Router) SetShards(shards []Shard) error {
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
	sort.Strings(v.order)
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
			v.labels[id] = DefaultLabels(id, r.opts.VirtualNodes)
		}
	}
	v.ring = newRingLabels(v.order, v.labels)
	r.v = v
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
	shards := make(map[string]space.Space, len(v.shards))
	for k, s := range v.shards {
		shards[k] = s
	}
	shards[id] = sp
	epochs := make(map[string]uint64, len(v.epochs))
	for k, e := range v.epochs {
		epochs[k] = e
	}
	epochs[id] = epoch
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

// do runs op on shard id's handle sp, feeding the outcome to the breaker
// and retry budget, and binds a written lease to the handle that produced
// it (see routerLease).
func (r *Router) do(id string, sp space.Space, op space.Op) (space.Result, error) {
	res, err := sp.Do(op)
	r.observe(id, err)
	if res.Lease != nil {
		res.Lease = &routerLease{r: r, sp: sp, l: res.Lease}
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

// sub resolves t (nil passes through) to the sub-transaction for shard id,
// opening it on first touch.
func (r *Router) sub(t space.Txn, id string, sp space.Space) (space.Txn, error) {
	if t == nil {
		return nil, nil
	}
	rt, ok := t.(*routerTxn)
	if !ok || rt.r != r {
		return nil, space.ErrBadTxn
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.done {
		return nil, tuplespace.ErrTxnInactive
	}
	if st, ok := rt.subs[id]; ok {
		return st.tx, nil
	}
	tx, err := sp.BeginTxn(rt.ttl)
	if err != nil && r.healed(id, err) {
		// No sub-transaction state existed yet, so opening it against the
		// promoted replacement is safe.
		sp = r.fresh(id)
		tx, err = sp.BeginTxn(rt.ttl)
	}
	if err != nil {
		return nil, wrapShard(id, err)
	}
	rt.subs[id] = subTxn{sp: sp, tx: tx}
	return tx, nil
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
	sort.Strings(ids) // deterministic completion order
	var firstErr error
	for _, id := range ids {
		// In exactly-once mode each sub-commit/abort carries its own token:
		// the commit RPC is the op whose reply loss must not re-execute the
		// transaction's effects.
		sop := space.Op{Kind: op.Kind, Txn: subs[id].tx, Token: op.Token}
		if sop.Token.Zero() {
			sop.Token = t.r.mint()
		}
		_, err := subs[id].sp.Do(sop)
		if err != nil && t.r.retryableMut(err, sop.Token) {
			err = t.r.retryFinish(id, sop, err)
		}
		if err != nil && firstErr == nil {
			firstErr = wrapShard(id, err)
		}
	}
	return firstErr
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
	var id string
	if keyed {
		id = v.ring.get(key)
	} else {
		id = v.order[r.nextRot(len(v.order))]
	}
	aerr := r.allow(id)
	if aerr != nil && !keyed {
		// An unkeyed write may land anywhere: route around open breakers
		// instead of fast-failing, falling through only when every shard
		// is open.
		for i := 1; i < len(v.order) && aerr != nil; i++ {
			id = v.order[r.nextRot(len(v.order))]
			aerr = r.allow(id)
		}
	}
	if aerr != nil {
		return space.Result{}, wrapShard(id, aerr)
	}
	sp := v.shards[id]
	if op.Txn, err = r.sub(op.Txn, id, sp); err != nil {
		return space.Result{}, err
	}
	op.Token = r.tokFor(op)
	res, err := r.do(id, sp, op)
	if !op.Token.Zero() {
		if err != nil && r.retryableMut(err, op.Token) {
			res, id, err = r.retryMut(key, keyed, id, op, err)
		}
	} else if r.healedMut(id, err) && op.Txn == nil {
		res, err = r.do(id, r.fresh(id), op)
	}
	return res, wrapShard(id, err)
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

func (r *Router) lookup(op space.Op) (space.Result, error) {
	v := r.snapshot()
	key, keyed, err := tuplespace.IndexKey(op.Entry)
	if err != nil {
		return space.Result{}, err
	}
	take, block, t := op.Kind.Takes(), op.Kind.Blocks(), op.Txn
	if keyed || len(v.order) == 1 {
		// One shard can satisfy this: hand it the full timeout directly.
		// The token rides non-transactional takes only (reads never
		// mutate, and a transactional op's retry unit is its commit).
		sop := op
		sop.Token = tuplespace.OpToken{}
		if take {
			sop.Token = r.tokFor(op)
		}
		tok := sop.Token
		if t == nil && block && r.opts.Failover != nil {
			id := v.order[0]
			if keyed {
				id = v.ring.get(key)
			}
			// Replicated ring: a dead primary here is curable, so hard
			// failures degrade to a failover-polling loop instead of
			// surfacing (see singleBlocking).
			return r.singleBlocking(id, sop)
		}
		clk := r.opts.Clock
		var deadline time.Time
		if block && op.Wait > 0 {
			deadline = clk.Now().Add(op.Wait)
		}
		for {
			id := v.order[0]
			if keyed {
				id = v.ring.get(key)
			}
			if aerr := r.allow(id); aerr != nil {
				return space.Result{}, wrapShard(id, aerr)
			}
			sp := v.shards[id]
			if sop.Txn, err = r.sub(t, id, sp); err != nil {
				return space.Result{}, err
			}
			res, err := r.do(id, sp, sop)
			if r.healedOpTok(id, take, err, tok) && t == nil {
				res, err = r.do(id, r.fresh(id), sop)
			}
			if block && t == nil && errors.Is(err, tuplespace.ErrClosed) {
				// The shard was closed under a parked call: a merge retired
				// it, or a restart swapped a recovered space in behind the
				// same ring ID. ErrClosed guarantees the op did not execute
				// (see ambiguous), so re-parking on the current owner is
				// safe even for takes. awaitReroute fails when nothing
				// replaces the shard — then the close means shutdown and
				// the error surfaces as before.
				if next, ok := r.awaitReroute(key, keyed, id, sp, deadline); ok {
					v = next
					if !deadline.IsZero() {
						if sop.Wait = deadline.Sub(clk.Now()); sop.Wait <= 0 {
							return space.Result{}, timeoutErr(wrapShard(id, err))
						}
					}
					continue
				}
			}
			if err != nil && t == nil && !tok.Zero() && failoverWorthy(err) {
				if block {
					// Exactly-once blocking take: the token makes a replay
					// safe, so instead of surfacing, poll and re-issue the
					// same token until the deadline (the deadline is the
					// per-op budget for blocking ops).
					if deadline.IsZero() || clk.Now().Before(deadline) {
						clk.Sleep(r.opts.PollInterval)
						v = r.snapshot()
						if !deadline.IsZero() {
							if sop.Wait = deadline.Sub(clk.Now()); sop.Wait <= 0 {
								return space.Result{}, timeoutErr(wrapShard(id, err))
							}
						}
						continue
					}
					return space.Result{}, timeoutErr(wrapShard(id, err))
				}
				// Non-blocking exactly-once take: budgeted retry loop.
				res, id, err = r.retryMut(key, keyed, id, sop, err)
			}
			return res, wrapShard(id, err)
		}
	}
	if !block {
		res, err, _ := r.sweep(v, op)
		return res, err
	}
	if t != nil {
		// Scatter under a transaction polls sequentially: the first-win
		// path below writes losing takes back outside any transaction,
		// which would break isolation here.
		return r.pollScatter(v, op)
	}
	return r.scatter(v, op)
}

// awaitReroute polls the view after a single-shard blocking lookup found
// its shard closed, until the lookup resolves somewhere new: a different
// ring ID (an elastic merge routed the key back to the parent) or a fresh
// handle behind the same ID (a restart recovered the shard from its WAL).
// A merge installs its topology before closing the retired child, so the
// first snapshot usually already differs; a restart closes the old space
// before swapping the recovered one in, so a short grace of poll rounds
// covers the replay window. If nothing replaces the shard within the
// grace — a plain shutdown — it reports false and the caller surfaces
// ErrClosed exactly as before.
func (r *Router) awaitReroute(key string, keyed bool, id string, sp space.Space, deadline time.Time) (*view, bool) {
	clk := r.opts.Clock
	grace := clk.Now().Add(10 * r.opts.PollInterval)
	for {
		next := r.snapshot()
		nid := next.order[0]
		if keyed {
			nid = next.ring.get(key)
		}
		if nid != id || next.shards[nid] != sp {
			return next, true
		}
		now := clk.Now()
		if !now.Before(grace) || (!deadline.IsZero() && !now.Before(deadline)) {
			return nil, false
		}
		clk.Sleep(r.opts.PollInterval)
	}
}

// singleBlocking is the blocking lookup that only one shard can satisfy
// (keyed template, or a one-shard ring) outside any transaction. The
// healthy path hands the shard the full timeout in one call; after a hard
// failure it degrades to a poll loop that attempts failover each round,
// so the window between a primary dying and its backup promoting looks
// like a timeout (which retry loops such as the master's collect treat as
// benign) instead of a fatal ShardError.
func (r *Router) singleBlocking(id string, op space.Op) (space.Result, error) {
	clk := r.opts.Clock
	timeout, take, tok := op.Wait, op.Kind.Takes(), op.Token
	var deadline time.Time
	if timeout > 0 {
		deadline = clk.Now().Add(timeout)
	}
	var lastHard error
	for {
		var res space.Result
		err := r.allow(id)
		if err == nil {
			res, err = r.do(id, r.fresh(id), op)
		}
		if err == nil {
			return res, nil
		}
		if !hard(err) {
			// The shard itself timed out cleanly; keep any earlier hard
			// failure in the diagnostics.
			return space.Result{}, timeoutErr(lastHard)
		}
		lastHard = wrapShard(id, err)
		if take && ambiguous(err) {
			if tok.Zero() {
				// The take may have executed with only the reply lost; heal
				// the ring for the next op but surface the ambiguity instead
				// of re-taking, which would silently discard the taken entry.
				r.tryFailover(id)
				return space.Result{}, lastHard
			}
			// Exactly-once: the retry carries the same token, so if the take
			// did execute, the promoted (or recovered) shard's memo returns
			// the original entry instead of re-taking. Resolve failover and
			// go around — unless the retry budget is dry, in which case the
			// ambiguity surfaces (still counted) instead of being re-driven.
			r.countRetry(metrics.CounterRetryAmbiguous)
			if !r.spendRetry() {
				return space.Result{}, lastHard
			}
			r.countRetry(metrics.CounterRetryAttempts)
			r.tryFailover(id)
		} else if !r.healed(id, err) {
			// No replacement yet: poll until one promotes or time runs out.
			wait := r.opts.PollInterval
			if !deadline.IsZero() {
				if rem := deadline.Sub(clk.Now()); rem < wait {
					wait = rem
				}
			}
			if wait > 0 {
				clk.Sleep(wait)
			}
		}
		if !deadline.IsZero() {
			rem := deadline.Sub(clk.Now())
			if rem <= 0 {
				return space.Result{}, timeoutErr(lastHard)
			}
			op.Wait = rem
		} else {
			op.Wait = timeout
		}
	}
}

// hard reports whether err ends a scatter (as opposed to the no-entry-yet
// conditions that just mean "keep looking").
func hard(err error) bool {
	return !errors.Is(err, tuplespace.ErrNoMatch) && !errors.Is(err, tuplespace.ErrTimeout)
}

// ShardError is a hard failure from one identified shard during a routed or
// scattered operation — a dead listener, a partitioned address, an injected
// fault. Callers that need the failing shard use errors.As; errors.Is still
// sees the underlying cause through Unwrap. When only some shards fail, a
// blocking scatter keeps serving from the healthy ones and surfaces the
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
	t, take := op.Txn, op.Kind.Takes()
	op.Kind, op.Wait = ifExists(op.Kind), 0
	var firstErr error
	hards := 0
	for i := 0; i < n; i++ {
		id := v.order[(start+i)%n]
		sp := v.shards[id]
		if aerr := r.allow(id); aerr != nil {
			// The breaker fast-fails this shard's probe; the sweep keeps
			// serving from the rest, exactly as with a slow hard failure.
			hards++
			if firstErr == nil {
				firstErr = wrapShard(id, aerr)
			}
			continue
		}
		var err error
		if op.Txn, err = r.sub(t, id, sp); err != nil {
			var se *ShardError
			if !errors.As(err, &se) {
				// Not a shard-side failure (bad or inactive caller txn):
				// poisons the whole op.
				return space.Result{}, err, n
			}
			// One shard refusing its sub-transaction (dead, partitioned) is
			// a per-shard hard failure; the rest can still serve the sweep.
			hards++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Each shard probe is its own tokened attempt: a token must never
		// retry across ring IDs (the effect it dedups lives on one shard).
		op.Token = tuplespace.OpToken{}
		if take {
			op.Token = r.tokOf(t)
		}
		res, err := r.do(id, sp, op)
		if err == nil {
			return res, nil, 0
		}
		if hard(err) {
			if r.healedOpTok(id, take, err, op.Token) && t == nil {
				// Retry immediately against the promoted replacement.
				res, err2 := r.do(id, r.fresh(id), op)
				if err2 == nil {
					return res, nil, 0
				} else if !hard(err2) {
					continue // healed; this shard just has no match yet
				}
			}
			hards++
			if firstErr == nil {
				firstErr = wrapShard(id, err)
			}
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

// pollScatter is the blocking zero-key lookup under a transaction:
// repeated non-blocking sweeps with poll sleeps in between.
func (r *Router) pollScatter(v *view, op space.Op) (space.Result, error) {
	clk := r.opts.Clock
	var deadline time.Time
	if op.Wait > 0 {
		deadline = clk.Now().Add(op.Wait)
	}
	var lastHard error
	for {
		// Re-snapshot each sweep so a failover retarget (possibly performed
		// by another operation) is picked up mid-poll.
		v = r.snapshot()
		res, err, hards := r.sweep(v, op)
		if err == nil {
			return res, nil
		}
		if hard(err) {
			if hards >= len(v.order) {
				return space.Result{}, err // every shard failed: nothing to fail over to
			}
			lastHard = err // partial: healthy shards may still match
		}
		wait := r.opts.PollInterval
		if !deadline.IsZero() {
			rem := deadline.Sub(clk.Now())
			if rem <= 0 {
				return space.Result{}, timeoutErr(lastHard)
			}
			if rem < wait {
				wait = rem
			}
		}
		clk.Sleep(wait)
	}
}

// scatter is the blocking zero-key lookup outside transactions: rounds of
// concurrent slice-bounded blocking waits across all shards, first win
// returned. Because each per-shard wait is bounded by one slice, a losing
// shard's parked RPC drains within that slice of the winner — there is no
// unbounded leaked wait. A losing Take that nonetheless yields an entry is
// written back to the shard it came from (with a Forever lease; per-entry
// lease state does not survive the round trip).
func (r *Router) scatter(v *view, op space.Op) (space.Result, error) {
	clk := r.opts.Clock
	var deadline time.Time
	if op.Wait > 0 {
		deadline = clk.Now().Add(op.Wait)
	}
	// Fast pass before spawning anything.
	var lastHard error
	if res, err, hards := r.sweep(v, op); err == nil {
		return res, nil
	} else if hard(err) {
		if hards >= len(v.order) {
			return space.Result{}, err
		}
		lastHard = err
	}
	n := len(v.order)
	fanout := r.opts.Fanout
	if fanout > n {
		fanout = n
	}
	base := r.nextRot(n)
	for round := 0; ; round++ {
		op.Wait = r.opts.Slice
		if !deadline.IsZero() {
			rem := deadline.Sub(clk.Now())
			if rem <= 0 {
				return space.Result{}, timeoutErr(lastHard)
			}
			if rem < op.Wait {
				op.Wait = rem
			}
		}
		// Re-snapshot each round so a failover retarget is picked up by the
		// next wave of children instead of them probing the dead handle. The
		// ring may have shrunk since the entry clamp (a live merge retired a
		// shard), so re-clamp the fanout to this round's view — a child with
		// no chunk members would have nothing to probe.
		v = r.snapshot()
		f := fanout
		if m := len(v.order); f > m {
			f = m
		}
		res, err, allHard := r.scatterRound(v, op, f, base+round)
		if err == nil {
			return res, nil
		}
		if hard(err) {
			if allHard {
				return space.Result{}, err // no child could reach a live shard
			}
			lastHard = err
		}
	}
}

// roundState coordinates one scatter round's children with its parent.
type roundState struct {
	take   bool
	parker vclock.Waiter

	mu        sync.Mutex
	won       bool
	winner    space.Result
	remaining int
	hardErr   error
	hards     int
}

func (st *roundState) finished() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.won
}

// win records a successful lookup. The first one wakes the parent; a
// losing take is undone by writing the entry back where it came from.
func (st *roundState) win(sp space.Space, res space.Result) {
	st.mu.Lock()
	if !st.won {
		st.won = true
		st.winner = res
		st.mu.Unlock()
		st.parker.Wake()
		return
	}
	st.mu.Unlock()
	if st.take {
		sp.Write(res.Entry, nil, tuplespace.Forever) //nolint:errcheck // best-effort restore
	}
}

func (st *roundState) fail(err error) {
	st.mu.Lock()
	if st.hardErr == nil {
		st.hardErr = err
	}
	st.mu.Unlock()
}

// childDone retires a child; cutOff says the child reached no live shard
// at all (every probe in its chunk hard-failed).
func (st *roundState) childDone(cutOff bool) {
	st.mu.Lock()
	if cutOff {
		st.hards++
	}
	st.remaining--
	last := st.remaining == 0
	st.mu.Unlock()
	if last {
		st.parker.Wake() // idempotent with a winner's wake
	}
}

// result resolves the round after the parent wakes: a winner if any child
// won; otherwise the first shard error, with allHard set when every child
// was cut off from all of its shards (nothing left to fail over to);
// otherwise ErrTimeout (meaning: keep scattering).
func (st *roundState) result(children int) (space.Result, error, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.won {
		return st.winner, nil, false
	}
	if st.hardErr != nil {
		return space.Result{}, st.hardErr, st.hards == children
	}
	return space.Result{}, tuplespace.ErrTimeout, false
}

// probe is one non-transactional scatter-child lookup against a shard,
// retried once against a promoted replacement on a hard failure. It
// returns the handle actually used, so a losing take is written back to
// the shard that produced it.
func (r *Router) probe(s Shard, op space.Op) (space.Space, space.Result, error) {
	if aerr := r.allow(s.ID); aerr != nil {
		return s.Space, space.Result{}, aerr
	}
	take := op.Kind.Takes()
	op.Token = tuplespace.OpToken{}
	if take {
		op.Token = r.mint()
	}
	res, err := r.do(s.ID, s.Space, op)
	if r.healedOpTok(s.ID, take, err, op.Token) {
		sp := r.fresh(s.ID)
		res, err = r.do(s.ID, sp, op)
		return sp, res, err
	}
	return s.Space, res, err
}

// scatterRound runs one round of blocking lookup op: fanout children each
// sweep a strided chunk of the shards non-blockingly, then park one
// blocking wait — op.Wait is the round's slice — on their chunk's
// rotating member. The parent parks on a Waiter and is woken by the first
// winner or the last child — never left parked, even on the virtual
// clock, because every child's wait is itself bounded by a clock timer.
func (r *Router) scatterRound(v *view, op space.Op, fanout, round int) (space.Result, error, bool) {
	quick := op
	quick.Kind, quick.Wait = ifExists(op.Kind), 0
	clk := r.opts.Clock
	st := &roundState{take: op.Kind.Takes(), parker: clk.NewWaiter(), remaining: fanout}
	g := vclock.NewGroup(clk)
	n := len(v.order)
	for j := 0; j < fanout; j++ {
		j := j
		g.Go(func() {
			sawLive, sawHard := false, false
			defer func() { st.childDone(sawHard && !sawLive) }()
			var chunk []Shard
			for i := j; i < n; i += fanout {
				id := v.order[(round+i)%n]
				chunk = append(chunk, Shard{ID: id, Space: v.shards[id]})
			}
			if len(chunk) == 0 {
				// fanout exceeds the view (the ring shrank under us):
				// nothing to probe; the deferred childDone keeps the
				// round's accounting intact.
				return
			}
			for _, s := range chunk {
				if st.finished() {
					return
				}
				sp, res, err := r.probe(s, quick)
				if err == nil {
					st.win(sp, res)
					return
				}
				if hard(err) {
					// A dead chunk member doesn't end the child: keep
					// probing the rest so one partitioned shard never
					// blinds a whole stride of healthy ones.
					st.fail(wrapShard(s.ID, err))
					sawHard = true
				} else {
					sawLive = true
				}
			}
			if st.finished() {
				return
			}
			s := chunk[round%len(chunk)]
			sp, res, err := r.probe(s, op)
			if err == nil {
				st.win(sp, res)
			} else if hard(err) {
				st.fail(wrapShard(s.ID, err))
				sawHard = true
			} else {
				sawLive = true
			}
		})
	}
	st.parker.Wait(0)
	return st.result(fanout)
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
	t, take, max := op.Txn, op.Kind.Takes(), op.Max
	// one runs op against shard id with budget rem. pinned marks the
	// single-shard case, whose token may be the caller's and whose
	// exactly-once retry may re-route by key; a walk's per-shard tokens
	// stay on the shard that may hold their effect.
	one := func(id string, rem int, pinned bool) ([]tuplespace.Entry, error) {
		if aerr := r.allow(id); aerr != nil {
			return nil, wrapShard(id, aerr)
		}
		sp := v.shards[id]
		sop := op
		sop.Max = rem
		var err error
		if sop.Txn, err = r.sub(t, id, sp); err != nil {
			return nil, err
		}
		sop.Token = tuplespace.OpToken{}
		if take && pinned {
			sop.Token = r.tokFor(op)
		} else if take {
			sop.Token = r.tokOf(t)
		}
		res, err := r.do(id, sp, sop)
		if pinned && !sop.Token.Zero() && err != nil && r.retryableMut(err, sop.Token) {
			res, id, err = r.retryMut(key, keyed, id, sop, err)
		} else if r.healedOpTok(id, take, err, sop.Token) && t == nil {
			res, err = r.do(id, r.fresh(id), sop)
		}
		return res.Entries, wrapShard(id, err)
	}
	if keyed {
		return one(v.ring.get(key), max, true)
	}
	if len(v.order) == 1 {
		return one(v.order[0], max, true)
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
			es, err := one(v.order[(start+i)%n], rem, false)
			if err != nil {
				return out, err
			}
			out = append(out, es...)
		}
		return out, nil
	}
	// Unbounded read: concurrent strided gather, merged in shard order.
	results := make([][]tuplespace.Entry, len(v.order))
	errs := make([]error, len(v.order))
	r.strided(v, func(i int, id string) {
		results[i], errs[i] = one(id, 0, false)
	})
	var out []tuplespace.Entry
	for i := range v.order {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// count counts one shard for a keyed template, otherwise sums the
// per-shard counts concurrently.
func (r *Router) count(op space.Op) (int, error) {
	v := r.snapshot()
	key, keyed, err := tuplespace.IndexKey(op.Entry)
	if err != nil {
		return 0, err
	}
	one := func(id string) (int, error) {
		if aerr := r.allow(id); aerr != nil {
			return 0, wrapShard(id, aerr)
		}
		res, err := r.do(id, v.shards[id], op)
		if r.healed(id, err) {
			res, err = r.do(id, r.fresh(id), op)
		}
		return res.N, wrapShard(id, err)
	}
	if keyed {
		return one(v.ring.get(key))
	}
	counts := make([]int, len(v.order))
	errs := make([]error, len(v.order))
	r.strided(v, func(i int, id string) {
		counts[i], errs[i] = one(id)
	})
	total := 0
	for i := range v.order {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += counts[i]
	}
	return total, nil
}

// strided runs fn(i, id) for every shard with at most Fanout concurrent
// calls, blocking until all complete.
func (r *Router) strided(v *view, fn func(i int, id string)) {
	n := len(v.order)
	fanout := r.opts.Fanout
	if fanout > n {
		fanout = n
	}
	g := vclock.NewGroup(r.opts.Clock)
	for j := 0; j < fanout; j++ {
		j := j
		g.Go(func() {
			for i := j; i < n; i += fanout {
				fn(i, v.order[i])
			}
		})
	}
	g.Wait()
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
	results := make([]map[string]int, len(v.order))
	errs := make([]error, len(v.order))
	op := space.Op{Kind: space.OpTypeCounts}
	r.strided(v, func(i int, id string) {
		res, err := v.shards[id].Do(op)
		if r.healed(id, err) {
			res, err = r.fresh(id).Do(op)
		}
		results[i], errs[i] = res.Counts, wrapShard(id, err)
	})
	out := make(map[string]map[string]int, len(v.order))
	for i, id := range v.order {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[id] = results[i]
	}
	return out, nil
}

// Notifier is implemented by shard handles that support event
// registration (space.Local does; the remote proxy protocol has no event
// callback channel yet).
type Notifier interface {
	Notify(tmpl tuplespace.Entry, fn tuplespace.Listener, ttl time.Duration) (*tuplespace.Registration, error)
}

// Registrations aggregates the per-shard registrations behind one Notify.
type Registrations struct {
	regs []*tuplespace.Registration
}

// Cancel stops delivery on every shard.
func (rs *Registrations) Cancel() {
	for _, reg := range rs.regs {
		reg.Cancel()
	}
}

// Notify fans the registration out to every shard: fn fires when a
// matching entry becomes visible on any of them. Registration IDs and
// sequence numbers in delivered events are per-shard streams. Fails if
// any shard handle does not support notification.
func (r *Router) Notify(tmpl tuplespace.Entry, fn tuplespace.Listener, ttl time.Duration) (*Registrations, error) {
	v := r.snapshot()
	rs := &Registrations{}
	for _, id := range v.order {
		nt, ok := v.shards[id].(Notifier)
		if !ok {
			rs.Cancel()
			return nil, fmt.Errorf("shard: %s does not support Notify", id)
		}
		reg, err := nt.Notify(tmpl, fn, ttl)
		if err != nil {
			rs.Cancel()
			return nil, err
		}
		rs.regs = append(rs.regs, reg)
	}
	return rs, nil
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

// MultiSweeper aggregates per-shard transaction sweepers into the single
// Sweep the master's collect loop calls between bounded waits.
type MultiSweeper []interface{ Sweep() int }

// Sweep sweeps every shard's transaction manager and sums the reaped
// transactions.
func (m MultiSweeper) Sweep() int {
	total := 0
	for _, s := range m {
		total += s.Sweep()
	}
	return total
}
