package shardhost

import (
	"errors"
	"fmt"

	"gospaces/internal/obs"
	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/space"
)

// Replication: with Spec.Replicas every ring position is a primary/backup
// pair. The serving node's journal records stream to a hot standby on its
// own listener; the standby watches the heartbeat stream and the primary's
// lookup lease and promotes itself when the primary is gone, re-registering
// under the ring position at an incremented epoch. The master's router
// retargets in place; remote clients resolve the promoted registration
// through the lookup service on their next failed call. The protocol lives
// in internal/replica; this file is the wiring.

// standBy makes n the hot standby of ps behind primary controller p: a
// backup controller bound on n's listener and a mirror link from the
// serving node. A standby is not listed in the lookup service: only its
// primary dials it.
func (h *Host) standBy(ps *position, n *node, p *replica.Primary) (*replica.Backup, error) {
	ps.mu.Lock()
	serving, epoch := ps.serving, ps.epoch
	ps.mu.Unlock()
	b := replica.NewBackup(n.local, replica.BackupOptions{
		Clock:           h.clock,
		Epoch:           epoch,
		FailoverTimeout: h.spec.FailoverTimeout,
		LeaseExpired:    func() bool { return h.leaseExpired(ps.ring) },
		OnPromote:       func(e uint64) { h.promote(ps, e) },
		OnEvent:         h.detectFlightSink(n.addr, ps.ring),
		Counters:        h.Counters,
	})
	b.Bind(n.srv) // on a rejoining node this replaces the deposed handlers
	ps.mu.Lock()
	ps.standby, ps.backup = n, b
	ps.stops = append(ps.stops, b)
	ps.mu.Unlock()
	return b, h.attach(ps, p, serving, n)
}

// attach points primary controller p, running on node from, at standby to;
// the standby is brought up by snapshot push on p's next flush. The dial is
// tagged with the serving node's address so a fault plan can partition
// exactly the primary↔backup link.
func (h *Host) attach(ps *position, p *replica.Primary, from, to *node) error {
	mirror, err := h.env.Dial(from.addr, to.addr)
	if err != nil {
		return fmt.Errorf("shardhost: dial shard %d standby: %w", ps.idx, err)
	}
	p.SetMirror(mirror)
	return nil
}

// leaseExpired is the standby's registration-lease failure detector: no
// live registration claims the ring position. A lookup-service error is not
// evidence of a dead primary.
func (h *Host) leaseExpired(ring string) bool {
	items, err := h.env.Registrar.Lookup(map[string]string{"type": "javaspace", shard.AttrRing: ring})
	return err == nil && len(items) == 0
}

// promote is the standby's OnPromote glue: it turns the standby into the
// ring position's serving node. Runs on the backup monitor's goroutine (or
// a chaos script's) with the backup's apply mutex held, so no record
// application races the flip.
func (h *Host) promote(ps *position, epoch uint64) {
	ps.mu.Lock()
	n, deposed := ps.standby, ps.serving
	ps.mu.Unlock()

	// A fresh primary controller gates the promoted node from now on: it
	// renews the new registration, fences nothing (it IS the newest epoch),
	// and is ready to adopt a rejoining standby.
	handle, svc, gate, p := h.serve(ps, n, epoch, nil)

	// The promotion is the root of the failover span tree: its context and
	// causal stamp ride the new registration (and the in-process resolver),
	// so every router that retargets onto this node parents its retarget
	// span under this one and orders its flight events after it.
	var tc obs.TraceContext
	var stamp uint64
	if h.spec.Obs != nil {
		sp := h.spec.Obs.T().StartRoot(h.clock, "failover", n.addr)
		tc = sp.Context()
		sp.End()
		stamp = h.Flight(n.addr, obs.FlightEvent{
			Kind: obs.EventPromote, Shard: ps.ring, Epoch: epoch,
			Trace: tc.TraceID, Span: tc.SpanID,
		})
	}

	ps.mu.Lock()
	ps.serving, ps.standby = n, deposed
	ps.svc, ps.gate, ps.primary, ps.handle = svc, gate, p, handle
	ps.promoted, ps.epoch = true, epoch
	// The deposed registration is not withdrawn: its owner may be
	// partitioned, not dead. It lapses within FailoverTimeout.
	ps.listing = nil
	ps.stops = append(ps.stops, p)
	ps.trace, ps.clk = tc, stamp
	ps.mu.Unlock()

	h.setErr(h.announce(ps, false))

	// The master's router retargets immediately, and the deposed node
	// stops serving: a lookup parked there wakes with ErrClosed and is
	// re-issued on the promoted node instead of waiting out its timeout
	// where no entry will arrive. (Rejoin builds a fresh space.)
	_ = h.router.RetargetTraced(shard.Shard{ID: ps.ring, Space: handle, Epoch: epoch, Trace: tc, Clk: stamp}) // a stale epoch lost a race it may lose
	deposed.local.TS.Close()
	h.env.Spawn(p.Run)
}

// resolve is the master router's failover resolver: a ring position
// resolves to the in-process handle its promotion recorded.
func (h *Host) resolve(ring string) (shard.Shard, error) {
	ps := h.byRing(ring)
	if ps == nil {
		return shard.Shard{}, fmt.Errorf("shardhost: unknown ring %q", ring)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.promoted {
		return shard.Shard{}, fmt.Errorf("shardhost: ring %q has not failed over", ring)
	}
	return shard.Shard{ID: ring, Space: ps.handle, Epoch: ps.epoch, Trace: ps.trace, Clk: ps.clk}, nil
}

// KillPrimary simulates kill -9 of ring position i's serving node: its
// replication pump dies mid-beat (no more heartbeats, no more lease
// renewals), its space closes (blocked callers wake with ErrClosed) and,
// when durable, its WAL shuts. Nothing is restarted: the standby detects
// the silence and promotes itself within Spec.FailoverTimeout.
func (h *Host) KillPrimary(i int) error {
	if h.spec.Replicas == 0 {
		return errors.New("shardhost: KillPrimary requires replicas")
	}
	ps := h.position(i)
	if ps == nil {
		return fmt.Errorf("shardhost: no shard %d", i)
	}
	ps.mu.Lock()
	p, n := ps.primary, ps.serving
	ps.mu.Unlock()
	if p.Killed() {
		return fmt.Errorf("shardhost: shard %d has no live primary", i)
	}
	p.Kill()
	n.local.TS.Close()
	if n.durable != nil {
		_ = n.durable.Close() // kill -9 does not check either
	}
	h.Flight(n.addr, obs.FlightEvent{Kind: obs.EventKill, Shard: ps.ring, Epoch: p.Epoch()})
	return nil
}

// Rejoin returns ring position i's deposed node to service as the hot
// standby of its promoted primary — the catch-up path. Its old in-memory
// state died with the process and its log is superseded by the snapshot, so
// it rejoins with a fresh memory-only space on its old listener, is
// initialized by snapshot push, and follows the incremental stream from
// there; it has converged before Rejoin returns.
func (h *Host) Rejoin(i int) error {
	ps := h.position(i)
	if ps == nil || h.spec.Replicas == 0 {
		return errors.New("shardhost: Rejoin requires replicas")
	}
	ps.mu.Lock()
	p, b, deposed, tc := ps.primary, ps.backup, ps.standby, ps.trace
	ps.mu.Unlock()
	if !b.Promoted() {
		return fmt.Errorf("shardhost: shard %d has not failed over", i)
	}
	n, err := h.buildNode(Node{}, deposed, ps.ring, "")
	if err != nil {
		return fmt.Errorf("shardhost: shard %d rejoin: %w", i, err)
	}
	b2, err := h.standBy(ps, n, p)
	if err != nil {
		return err
	}
	// The rejoin belongs to the failover's span tree: the deposed node
	// returning as standby is a consequence of the promotion.
	if h.spec.Obs != nil {
		sp := h.spec.Obs.T().StartChild(h.clock, tc, "rejoin", n.addr)
		ctx := sp.Context()
		sp.End()
		h.Flight(n.addr, obs.FlightEvent{
			Kind: obs.EventRejoin, Shard: ps.ring, Epoch: b.Epoch(),
			Trace: ctx.TraceID, Span: ctx.SpanID,
		})
	}
	h.env.Spawn(b2.Run)
	return p.Flush()
}

// ReplicaState exposes ring position i's current replication controllers
// (both nil when unreplicated); the backup is the one that would promote,
// or already has.
func (h *Host) ReplicaState(i int) (*replica.Primary, *replica.Backup) {
	ps := h.position(i)
	if ps == nil {
		return nil, nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.primary, ps.backup
}

// Epoch reports the serving epoch of ring position i: 1 until the first
// failover, 0 when unreplicated.
func (h *Host) Epoch(i int) uint64 {
	ps := h.position(i)
	if ps == nil {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.epoch
}

// DeposedHandle returns the master-side handle ring position i had at
// construction (nil when unreplicated). After a failover it is gated by the
// deposed primary controller: mutations through it must fail with
// replica.ErrFenced — the split-brain probe.
func (h *Host) DeposedHandle(i int) space.Space {
	ps := h.position(i)
	if ps == nil || h.spec.Replicas == 0 {
		return nil
	}
	return ps.origHandle
}
