package replica

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// PrimaryOptions configures a shard's primary-side replication controller.
type PrimaryOptions struct {
	Clock vclock.Clock
	// Epoch is the starting epoch (default 1). A controller created at
	// promotion inherits the promoted epoch.
	Epoch uint64
	// Ack selects sync (default) or async acknowledgement.
	Ack AckMode
	// MaxQueue bounds the unshipped-record queue; overflow discards the
	// queue and schedules a full snapshot re-sync. Default 65536.
	MaxQueue int
	// Renew, when set, is called from the pump each interval to renew the
	// primary's lookup-service registration lease. A fenced primary stops
	// renewing, letting the registration lapse.
	Renew func()
	// OnFenced, when set, is called once when the primary learns it has
	// been deposed (a replication RPC came back ErrFenced).
	OnFenced func(epoch uint64)
	// OnEvent, when set, receives control-plane state transitions for the
	// cluster flight recorder: kind "resync" after a successful snapshot
	// push, "degraded" when the backup first becomes unreachable. Called
	// outside the controller's mutex, never from under the space mutex.
	OnEvent func(kind, detail string)

	Counters *metrics.Counters
	ShipHist *metrics.Histogram
}

// Primary is the primary-side replication controller for one shard. It
// owns the journal record queue, the shipping stream to the backup, and
// the fenced/degraded state machine that gates client mutations.
//
// The critical constraint it is built around: the tuplespace invokes its
// journal sink while holding the space mutex, and on the virtual clock a
// transport call from there would park an invisible (mutex-blocked)
// process and deadlock time. So Sink only enqueues; shipping happens in
// Flush, after the mutating operation has released the space — via the
// Wrap/Middleware hooks for sync mode and the pump for async.
type Primary struct {
	opts  PrimaryOptions
	local *space.Local

	mu       sync.Mutex
	queue    []byte // unshipped records [acked+1 .. seq], each behind its uvarint length
	offs     []int  // offs[i]: where record acked+1+i starts in queue
	seq      uint64 // last enqueued sequence number
	acked    uint64 // last sequence number confirmed by the backup
	mirror   transport.Client
	resync   bool // stream diverged (overflow / new mirror): snapshot push next
	degraded bool // backup unreachable: sync-mode mutations fail fast
	fenced   bool // deposed by a higher epoch: all mutations fail
	killed   bool // simulated kill -9: everything fails
	epoch    uint64
	pump     vclock.Loop

	// The ship section serializes transport I/O (Flush, re-sync,
	// heartbeat) so the record stream stays ordered. It cannot be a bare
	// mutex: the holder sleeps on the clock inside transport calls, and on
	// the virtual clock a process blocked on a mutex is invisible — time
	// would freeze with one confirm() shipping and another waiting. So
	// contenders park on clock waiters (visible), and the holder wakes
	// them on release. A contender's waiter goes back on idleWaiters once
	// it holds the section, for the next contender: a contended ship
	// allocates nothing.
	shipping    bool            // guarded by mu
	shipWaiters []vclock.Waiter // guarded by mu: the parked contenders'
	idleWaiters []vclock.Waiter // guarded by mu
}

// NewPrimary returns a controller for local. Call SetMirror to attach the
// backup, Wrap/Middleware to gate the serving paths, and run the pump
// under a clock group.
func NewPrimary(local *space.Local, opts PrimaryOptions) *Primary {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 65536
	}
	return &Primary{opts: opts, local: local, epoch: opts.Epoch}
}

// SetMirror attaches (or replaces) the transport client to the backup. A
// newly attached backup is brought up by snapshot push on the next flush.
func (p *Primary) SetMirror(c transport.Client) {
	p.mu.Lock()
	p.mirror = c
	p.resync = c != nil
	p.mu.Unlock()
}

// --- enqueue side (called under the tuplespace mutex; must not block) ---

type queueSink struct{ p *Primary }

// Append implements tuplespace.RecordSink by enqueueing only — the
// records ship later, outside the space mutex, so the queue copies the
// borrowed payload into its buffer, framed as the wire's batch carries it.
func (s queueSink) Append(payload []byte) error {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed || p.fenced {
		// A deposed primary's mutations are never replicated; the gate in
		// Wrap/Middleware already rejects client ops, this catches
		// internal churn (lease expiry sweeps).
		return nil
	}
	if p.mirror == nil {
		// No backup attached yet: don't queue, attach re-syncs anyway.
		return nil
	}
	if p.resync {
		return nil // queue is dead, snapshot push supersedes it
	}
	if len(p.offs) >= p.opts.MaxQueue {
		// Dropped, not truncated: a flush in flight may still be reading
		// the buffer.
		p.queue, p.offs = nil, nil
		p.resync = true
		return nil
	}
	p.seq++
	p.offs = append(p.offs, len(p.queue))
	p.queue = appendRecord(p.queue, payload)
	return nil
}

// Sink returns the enqueue-only record sink to hand to the space journal
// (alone, or teed with a durable WAL sink).
func (p *Primary) Sink() tuplespace.RecordSink { return queueSink{p: p} }

// --- shipping side ---

// acquireShip enters the ship section, parking clock-visibly while
// another process ships.
func (p *Primary) acquireShip() {
	p.mu.Lock()
	if p.shipping {
		var w vclock.Waiter
		if n := len(p.idleWaiters); n > 0 {
			w = p.idleWaiters[n-1]
			p.idleWaiters = p.idleWaiters[:n-1]
		} else {
			w = p.opts.Clock.NewWaiter()
		}
		for p.shipping {
			p.shipWaiters = append(p.shipWaiters, w)
			p.mu.Unlock()
			w.Wait(0) // one Wake per park: releaseShip takes w off the list as it wakes it
			p.mu.Lock()
		}
		p.idleWaiters = append(p.idleWaiters, w)
	}
	p.shipping = true
	p.mu.Unlock()
}

// releaseShip leaves the ship section and wakes every parked contender
// (they re-check and re-park; herds are tiny — one per concurrent client).
// It wakes them under mu, so the list keeps its array: a Wake neither
// blocks nor takes a lock of the controller's.
func (p *Primary) releaseShip() {
	p.mu.Lock()
	p.shipping = false
	for i, w := range p.shipWaiters {
		w.Wake()
		p.shipWaiters[i] = nil
	}
	p.shipWaiters = p.shipWaiters[:0]
	p.mu.Unlock()
}

// Flush ships every queued record to the backup and waits for the ack.
// In sync mode its error is the client's error: nothing unconfirmed is
// acknowledged.
func (p *Primary) Flush() error {
	p.acquireShip()
	defer p.releaseShip()
	return p.flushLocked()
}

func (p *Primary) flushLocked() error {
	for {
		p.mu.Lock()
		mirror := p.mirror
		if p.killed {
			p.mu.Unlock()
			return tuplespace.ErrClosed
		}
		if p.fenced {
			// A sync-mode mutation can race the fencing signal: gate()
			// passed, the op mutated the space, and the pump's heartbeat
			// learned of the higher epoch before confirm() flushed. The
			// record was never replicated (queueSink drops on fenced), so
			// acknowledging it would hand the client a write that exists
			// only on the deposed primary — fail the op instead.
			p.mu.Unlock()
			return ErrFenced
		}
		if mirror == nil {
			p.mu.Unlock()
			return nil
		}
		if p.resync {
			p.mu.Unlock()
			if err := p.resyncLocked(mirror); err != nil {
				return err
			}
			continue // ship whatever queued while the snapshot was in flight
		}
		if len(p.offs) == 0 {
			p.mu.Unlock()
			return nil
		}
		// The queue's prefix ships as it stands. An Append while the call
		// is out writes past it; only this ship section trims it.
		// The argument is lent (enc.Lend) and taken back once Call has
		// returned; so is the reply, once read.
		args := enc.Lend(appendArgs{Epoch: p.epoch, From: p.acked + 1, N: uint64(len(p.offs)), Batch: p.queue})
		p.mu.Unlock()

		start := p.opts.Clock.Now()
		res, err := mirror.Call(methodAppend, args)
		enc.Release(args)
		p.opts.ShipHist.Record(p.opts.Clock.Since(start))
		if err := p.shipResult(err); err != nil {
			return err
		}
		rep, ok := res.(*appendReply)
		if !ok {
			// A nil or mistyped reply with a nil error would look like
			// "applied nothing" and spin this loop re-shipping the same
			// batch; treat it as a ship failure (degrades, surfaces).
			return p.shipResult(fmt.Errorf("replica: malformed %s reply %T", methodAppend, res))
		}
		applied := rep.Applied
		enc.Release(rep)
		p.mu.Lock()
		if applied > p.acked {
			shipped := applied - p.acked
			p.trimLocked(shipped)
			p.acked = applied
			p.count(metrics.CounterReplShipped, shipped)
		}
		p.degraded = false
		more := len(p.offs) > 0 || p.resync
		p.mu.Unlock()
		if !more {
			return nil
		}
	}
}

// trimLocked drops the first n queued records, which the backup holds now,
// moving the rest to the front of the buffer. Caller holds mu and the ship
// section, so no call is reading the buffer.
func (p *Primary) trimLocked(n uint64) {
	if n >= uint64(len(p.offs)) {
		p.queue, p.offs = p.queue[:0], p.offs[:0]
		return
	}
	cut := p.offs[n]
	p.queue = p.queue[:copy(p.queue, p.queue[cut:])]
	p.offs = p.offs[:copy(p.offs, p.offs[n:])]
	for i := range p.offs {
		p.offs[i] -= cut
	}
}

// resyncLocked pushes the primary's full live state to the backup. The
// ordering subtlety: records enqueued before EncodeState captures the
// space are also reflected in the snapshot, so the backup may see an op
// twice — the Applier is idempotent per entry id, which makes the
// overlap harmless; seqMark (read before the capture) conservatively
// marks where the incremental stream resumes.
func (p *Primary) resyncLocked(mirror transport.Client) error {
	p.mu.Lock()
	seqMark := p.seq
	epoch := p.epoch
	p.queue, p.offs = p.queue[:0], p.offs[:0]
	p.acked = seqMark
	p.resync = false
	p.mu.Unlock()

	records, err := p.local.TS.EncodeState()
	if err != nil {
		return fmt.Errorf("replica: encode state for re-sync: %w", err)
	}
	var batch []byte
	for _, rec := range records {
		batch = appendRecord(batch, rec)
	}
	_, err = mirror.Call(methodSync, &syncArgs{Epoch: epoch, Seq: seqMark, N: uint64(len(records)), Batch: batch})
	if err := p.shipResult(err); err != nil {
		p.mu.Lock()
		p.resync = true
		p.mu.Unlock()
		return err
	}
	p.count(metrics.CounterReplResyncs, 1)
	if p.opts.OnEvent != nil {
		p.opts.OnEvent("resync", fmt.Sprintf("epoch %d seq %d", epoch, seqMark))
	}
	return nil
}

// heartbeat probes the idle stream (and ships any backlog first).
func (p *Primary) heartbeat() error {
	p.acquireShip()
	defer p.releaseShip()
	if err := p.flushLocked(); err != nil {
		return err
	}
	p.mu.Lock()
	mirror := p.mirror
	epoch := p.epoch
	seq := p.seq
	p.mu.Unlock()
	if mirror == nil {
		return nil
	}
	_, err := mirror.Call(methodHeartbeat, &heartbeatArgs{Epoch: epoch, Seq: seq})
	if err := p.shipResult(err); err != nil {
		return err
	}
	p.mu.Lock()
	p.degraded = false
	p.mu.Unlock()
	return nil
}

// shipResult folds one transport result into the state machine: fencing
// deposes the primary, any other failure degrades it.
func (p *Primary) shipResult(err error) error {
	if err == nil {
		return nil
	}
	switch err {
	case ErrFenced:
		p.mu.Lock()
		already := p.fenced
		p.fenced = true
		epoch := p.epoch
		p.mu.Unlock()
		if !already && p.opts.OnFenced != nil {
			p.opts.OnFenced(epoch)
		}
		return ErrFenced
	case ErrOutOfSync:
		p.mu.Lock()
		p.resync = true
		p.mu.Unlock()
		return p.flushLocked() // shipMu already held by the caller
	default:
		p.mu.Lock()
		already := p.degraded
		p.degraded = true
		p.mu.Unlock()
		p.count(metrics.CounterReplShipErrors, 1)
		if !already && p.opts.OnEvent != nil {
			p.opts.OnEvent("degraded", err.Error())
		}
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
}

// --- mutation gating ---

// gate rejects a mutation before it touches the space: fenced primaries
// reject everything (split-brain safety), degraded sync-mode primaries
// fail fast (nothing may be acknowledged that the backup did not see).
func (p *Primary) gate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return tuplespace.ErrClosed
	}
	if p.fenced {
		return ErrFenced
	}
	if p.degraded && p.opts.Ack == AckSync && p.mirror != nil {
		return ErrUnavailable
	}
	return nil
}

// confirm runs after a successful mutation: in sync mode it ships the
// op's records and surfaces any replication failure as the op's error.
// Both modes re-check the fenced/killed state here — gate() ran before
// the mutation, and a fencing signal that landed in between must not be
// acknowledged (the record was dropped, not replicated).
func (p *Primary) confirm() error {
	if p.opts.Ack != AckSync {
		p.mu.Lock()
		killed, fenced := p.killed, p.fenced
		p.mu.Unlock()
		if killed {
			return tuplespace.ErrClosed
		}
		if fenced {
			return ErrFenced
		}
		return nil
	}
	return p.Flush()
}

// Middleware gates the shard's space service: install with
// srv.WrapPrefix("space.", p.Middleware()) once the service is registered.
// It wraps each handler as registered — admission included — so a fenced,
// killed or degraded primary refuses a mutation before admission sees it,
// and the standby confirm runs after admission has freed the op's inflight
// slot, before an outer (obs) layer sees the reply. Only kinds that mutate
// (space.Kind.Mutates) are wrapped.
func (p *Primary) Middleware() func(method string, next transport.Handler) transport.Handler {
	return func(method string, next transport.Handler) transport.Handler {
		if k, ok := space.KindOf(method); !ok || !k.Mutates() {
			return next
		}
		return func(arg interface{}) (interface{}, error) {
			if err := p.gate(); err != nil {
				return nil, err
			}
			res, err := next(arg)
			if err != nil {
				return res, err
			}
			if err := p.confirm(); err != nil {
				return nil, err
			}
			return res, nil
		}
	}
}

// Wrap returns inner behind the same gate/confirm envelope as an
// interceptor, for the in-process handle the master uses (remote clients
// are gated by Middleware instead). Commit and Cancel reach it as Ops like
// every other mutation, and a token passes through untouched — which
// matters: an op can execute locally and then fail confirm() (backup
// unreachable) while its record stays queued, a later flush ships the
// effect anyway, and only a retry carrying the same token collapses
// against the shard's memo instead of duplicating it.
func (p *Primary) Wrap(inner space.Space) space.Space {
	return space.Intercept(inner, func(op space.Op, next space.Doer) (space.Result, error) {
		if !op.Kind.Mutates() {
			return next.Do(op)
		}
		if err := p.gate(); err != nil {
			return space.Result{}, err
		}
		res, err := next.Do(op)
		if err != nil {
			return space.Result{}, err
		}
		if err := p.confirm(); err != nil {
			return space.Result{}, err
		}
		return res, nil
	})
}

// --- pump ---

// heartbeatEvery paces the pump: lease renewal plus an idle-stream
// heartbeat (and, in async mode, the background flush).
const heartbeatEvery = 500 * time.Millisecond

// Run is the pump: a clock process that every heartbeatEvery renews the
// lookup lease, ships any backlog, and heartbeats the backup so it can
// tell a healthy-but-idle primary from a dead one. Run returns when Stop
// or Kill is called.
func (p *Primary) Run() {
	for p.pump.Tick(p.opts.Clock, heartbeatEvery) {
		p.mu.Lock()
		killed, fenced := p.killed, p.fenced
		p.mu.Unlock()
		if killed {
			return // Kill landed as the park timed out
		}
		if !fenced && p.opts.Renew != nil {
			p.opts.Renew()
		}
		_ = p.heartbeat() // state machine absorbs failures; pump keeps probing
	}
}

// Stop terminates the pump cleanly (shutdown path).
func (p *Primary) Stop() { p.pump.Stop() }

// Kill simulates kill -9 of the primary process: the pump stops mid-beat
// (no more heartbeats, no more lease renewals) and every subsequent
// operation fails as if the process were gone. The caller closes the
// space and any durable log, as the real signal would.
func (p *Primary) Kill() {
	p.mu.Lock()
	p.killed = true
	p.mu.Unlock()
	p.pump.Stop()
}

// --- accessors ---

func (p *Primary) count(key string, n uint64) {
	if p.opts.Counters != nil {
		p.opts.Counters.AddN(key, n)
	}
}

// Epoch returns the controller's current epoch.
func (p *Primary) Epoch() uint64 { p.mu.Lock(); defer p.mu.Unlock(); return p.epoch }

// Seq returns the last enqueued record sequence number.
func (p *Primary) Seq() uint64 { p.mu.Lock(); defer p.mu.Unlock(); return p.seq }

// Acked returns the last backup-confirmed sequence number.
func (p *Primary) Acked() uint64 { p.mu.Lock(); defer p.mu.Unlock(); return p.acked }

// Lag returns how many enqueued records the backup has not confirmed.
func (p *Primary) Lag() uint64 { p.mu.Lock(); defer p.mu.Unlock(); return p.seq - p.acked }

// Fenced reports whether the primary has been deposed by a higher epoch.
func (p *Primary) Fenced() bool { p.mu.Lock(); defer p.mu.Unlock(); return p.fenced }

// Degraded reports whether the backup is currently unreachable.
func (p *Primary) Degraded() bool { p.mu.Lock(); defer p.mu.Unlock(); return p.degraded }

// Killed reports whether Kill has been called.
func (p *Primary) Killed() bool { p.mu.Lock(); defer p.mu.Unlock(); return p.killed }
