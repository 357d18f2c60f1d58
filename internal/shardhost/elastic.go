package shardhost

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/rebalance"
	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// Elastic resharding: with Spec.Elastic the host can grow and shrink the
// ring while a job runs. Split forks half of a hot shard's hash arc into a
// freshly built position without pausing the source — snapshot, live
// journal tap, eviction sweep, epoch-fenced topology cutover — and Merge
// folds a split-born position back into its parent. With Spec.AutoShard a
// load-driven controller issues those calls itself from per-shard op-rate
// EWMAs. The protocol lives in internal/rebalance; this file is the wiring.

// splitAttempts bounds how often a reshard re-arms against a freshly
// promoted node after the node it was migrating from failed mid-flight.
const splitAttempts = 3

// reshardState is the host-side bookkeeping of elastic mode.
type reshardState struct {
	mu       sync.Mutex
	inFlight bool              // one reshard at a time
	topoReg  uint64            // current topology record registration
	stale    bool              // a cutover's publish failed; the rebalancer retries it
	parents  map[string]string // split-born ring → parent ring
	// rates is the rebalancer's last per-shard op-rate EWMA snapshot —
	// what /healthz shows so operators see what the controller sees.
	rates map[string]float64
}

func (s *reshardState) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inFlight {
		return errors.New("shardhost: a reshard is already in flight")
	}
	s.inFlight = true
	return nil
}

func (s *reshardState) end() {
	s.mu.Lock()
	s.inFlight = false
	s.mu.Unlock()
}

// initElastic publishes the initial topology (epoch 1: every seed shard
// with its default labels) and primes the reshard bookkeeping. A watcher
// takes ring membership from topology records only, so publishing before
// the first split gives every client a record to follow from the start.
func (h *Host) initElastic() error {
	h.reshard = &reshardState{parents: make(map[string]string)}
	t := h.router.Topology()
	t.Epoch = 1
	if _, err := h.router.ApplyTopology(t, nil); err != nil {
		return fmt.Errorf("shardhost: initial topology: %w", err)
	}
	return h.publishTopology(&t)
}

// publishTopology registers t in the lookup service (new record before the
// old one is cancelled, so a watcher's lookup always finds at least one)
// and records the registration for the next rotation. The publication is
// flight-recorded first and its causal stamp rides the record as t.Clk, so
// every adopting router's subsequent events order strictly after the
// publish — the property CheckTimeline holds reshard dumps to.
func (h *Host) publishTopology(t *shard.Topology) error {
	t.Clk = h.Flight("master", obs.FlightEvent{
		Kind: obs.EventTopoPublish, Shard: "ring", Epoch: t.Epoch,
		Detail: fmt.Sprintf("%d members", len(t.Members)),
	})
	var id uint64
	enc, err := shard.EncodeTopology(*t)
	if err == nil {
		root, _ := h.RingID(0)
		id, err = h.env.Registrar.Register(discovery.ServiceItem{
			Name:    "javaspace-topology",
			Address: root,
			Attributes: map[string]string{
				"type":              shard.TopoType,
				shard.AttrTopo:      enc,
				shard.AttrTopoEpoch: strconv.FormatUint(t.Epoch, 10),
			},
		}, 0)
	}
	h.reshard.mu.Lock()
	h.reshard.stale = err != nil
	old := h.reshard.topoReg
	if err == nil {
		h.reshard.topoReg = id
	}
	h.reshard.mu.Unlock()
	if err != nil {
		return fmt.Errorf("shardhost: publish topology epoch %d: %w", t.Epoch, err)
	}
	h.unregister(old, nil)
	return nil
}

// isRetired reports whether ring was merged away (or stillborn).
func (h *Host) isRetired(ring string) bool {
	ps := h.byRing(ring)
	if ps == nil {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.retired
}

// servingChain resolves ring to the node currently serving it — the raw
// space a migration snapshots and evicts from and its migration tap — plus
// the position's primary controller (nil when unreplicated). After a
// failover this follows the promoted node, which is the point: a reshard
// always works against whoever serves now.
func (h *Host) servingChain(ring string) (*node, *replica.Primary) {
	ps := h.byRing(ring)
	if ps == nil {
		return nil, nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.serving, ps.primary
}

// SplitReport describes one completed shard split.
type SplitReport struct {
	Parent, Child string
	// Migrated counts the entries the child was forked from (the memos
	// that travel with them are not counted); Evicted counts entries swept
	// off the parent afterwards (settle + lame duck).
	Migrated, Evicted int
	// Retries counts fork attempts abandoned to a source failover.
	Retries int
	// Cutover is the routing blackout the master observed: from the moment
	// the source stopped being the range's owner of record to the topology
	// being applied and the child registered. Remote clients add at most
	// one watch interval of convergence lag on top.
	Cutover time.Duration
}

// Split splits ring member parentRing online: half of its hash-point
// labels (and so roughly half its key arc) move to a freshly built
// position. The source serves throughout; the migrating range is forked by
// snapshot, kept converged through a live journal tap, evicted once the
// child holds every copy, and cut over by publishing a strictly-newer ring
// topology. Entries are never lost: from the first eviction on, the split
// always runs to completion, re-arming against a promoted standby if the
// source fails mid-flight. Requires Spec.Elastic.
func (h *Host) Split(parentRing string) (SplitReport, error) {
	var rep SplitReport
	if h.reshard == nil {
		return rep, errors.New("shardhost: Split requires an elastic host")
	}
	if err := h.reshard.begin(); err != nil {
		return rep, err
	}
	defer h.reshard.end()
	if h.isRetired(parentRing) {
		return rep, fmt.Errorf("shardhost: ring member %q was merged away", parentRing)
	}

	cur := h.router.Topology()
	var parent *shard.TopoMember
	for i := range cur.Members {
		if cur.Members[i].ID == parentRing {
			parent = &cur.Members[i]
		}
	}
	if parent == nil {
		return rep, fmt.Errorf("shardhost: no ring member %q", parentRing)
	}
	keep, give := shard.SplitLabels(parent.Labels)
	if len(keep) == 0 || len(give) == 0 {
		return rep, fmt.Errorf("shardhost: ring member %q owns too few points to split", parentRing)
	}

	// The child is built exactly like a seed, joins the host's tables, but
	// stays unannounced — unreachable to routers — until the cutover
	// publishes the topology that places it. Its heartbeats start now so its
	// standby never mistakes the pre-registration window for a dead primary.
	child, err := h.buildPosition()
	if err != nil {
		return rep, err
	}
	// A split-born child must start empty. Its index — and so its WAL
	// directory — can repeat one an earlier process used; entries recovered
	// from that log would join the ring as if the split had migrated them.
	if d := child.serving.durable; d != nil {
		if info := d.Info(); info.Restored > 0 || info.SnapshotRecords > 0 || info.TailRecords > 0 {
			h.retire(child) // stillborn: nothing on disk is touched
			return rep, fmt.Errorf("shardhost: split %s: the child's WAL directory %s holds %d entries (%d records) from an earlier process; move it away and split again",
				parentRing, child.serving.dir, info.Restored, info.SnapshotRecords+info.TailRecords)
		}
	}
	// Captured before anything can fail the child over: the cutover hands
	// routers the construction-time handle, like a seed's.
	childTS, childHandle, childEpoch := child.serving.local.TS, child.handle, child.epoch
	if child.primary != nil {
		h.env.Spawn(child.primary.Run)
		h.env.Spawn(child.backup.Run)
	}
	h.Flight(child.ring, obs.FlightEvent{Kind: obs.EventNodeStart, Shard: child.ring, Detail: "split child"})
	rep.Parent, rep.Child = parentRing, child.ring

	// The split is one control-plane operation: a root span whose context
	// tags every phase event, so `expt timeline` groups the whole reshard.
	tc, phases := h.reshardTrace("split", parentRing)

	next := shard.Topology{Epoch: cur.Epoch + 1}
	for _, m := range cur.Members {
		if m.ID == parentRing {
			m.Labels = keep
		}
		next.Members = append(next.Members, m)
	}
	next.Members = append(next.Members, shard.TopoMember{ID: child.ring, Labels: give, Epoch: childEpoch})

	pred := rebalance.KeyedTo(shard.OwnerFunc(next), child.ring)
	// Memos for the migrating bucket ship with it, so a mutation retried
	// after the cutover re-routes to the child and still dedups there.
	memoPred := rebalance.KeyedMemosTo(shard.OwnerFunc(next), child.ring)
	dst := tuplespace.NewApplier(childTS)

	// Phase 1 — fork. Before any eviction the split can be rolled back
	// wholesale (the child just resets), so a source failover here means
	// waiting out the promotion and forking against whichever node then
	// serves the ring position.
	var m *rebalance.Migration
	for attempt := 1; ; attempt++ {
		src, _ := h.servingChain(parentRing)
		m = &rebalance.Migration{Clock: h.clock, Src: src.local.TS, Tap: src.tap, Dst: dst, Pred: pred, MemoPred: memoPred, Counters: h.Counters, OnEvent: phases}
		n, ferr := m.Fork()
		if ferr == nil {
			rep.Migrated = n
			break
		}
		m.Abort()
		h.Counters.Inc(metrics.CounterReshardAborted)
		if attempt >= splitAttempts {
			h.retire(child) // stillborn
			return rep, fmt.Errorf("shardhost: split %s: fork: %w", parentRing, ferr)
		}
		rep.Retries++
		h.clock.Sleep(h.spec.FailoverTimeout)
	}

	// Phase 2 — settle: evict the migrating range off the source until no
	// matching entry is held by an in-flight transaction. From the first
	// eviction on the split must complete — rolling back would drop entries
	// whose only authoritative copy is now the child's — so a failure here
	// does not abort; the lame-duck sweep below finishes the eviction
	// against whichever node serves after the dust settles.
	evicted, serr := m.SettleUntilClear(h.spec.TxnTTL)
	rep.Evicted += evicted
	if serr != nil {
		m.Tap.Close()
		h.setErr(serr)
	}

	// The child's own standby must hold everything before routers cut
	// over, so a child failover directly after the split loses nothing.
	h.flushPrimary(child)

	// Phase 3 — cutover: topology record first (any watcher that can see
	// the child's registration then also sees the ring that places it),
	// master retargets in-process, child registers last.
	cutStart := h.clock.Now()
	if perr := h.publishTopology(&next); perr != nil {
		// Remote clients keep the previous ring — consistent but stale —
		// and keep writing the moved range to the parent, which the drain
		// below keeps sweeping across.
		h.setErr(perr)
	}
	resolve := func(ring string) (shard.Shard, error) {
		if ring == child.ring {
			return shard.Shard{ID: ring, Space: childHandle, Epoch: childEpoch}, nil
		}
		return shard.Shard{}, fmt.Errorf("shardhost: unexpected new ring member %q", ring)
	}
	if _, aerr := h.router.ApplyTopology(next, resolve); aerr != nil {
		return rep, fmt.Errorf("shardhost: split %s: apply topology: %w", parentRing, aerr)
	}
	h.setErr(h.announce(child, false))
	h.reshard.mu.Lock()
	h.reshard.parents[child.ring] = parentRing
	h.reshard.mu.Unlock()
	rep.Cutover = h.clock.Since(cutStart)

	// Phase 4 — lame duck: sweep stragglers written by not-yet-converged
	// routers until the drain window outlasts every watcher's poll.
	drained, derr := h.lameDuck(m, serr == nil, parentRing, dst, pred, memoPred)
	rep.Evicted += drained
	h.setErr(derr)

	h.flushPrimary(child)
	h.Counters.Inc(metrics.CounterReshardSplits)
	h.Flight("master", obs.FlightEvent{
		Kind: obs.EventSplitDone, Shard: parentRing, Epoch: next.Epoch,
		Detail: fmt.Sprintf("child %s: %d migrated, %d evicted", child.ring, rep.Migrated, rep.Evicted),
		Trace:  tc.TraceID, Span: tc.SpanID,
	})
	return rep, nil
}

// flushPrimary ships ps's queued records to its standby (no-op when
// unreplicated). A failure degrades the pair; the next flush retries.
func (h *Host) flushPrimary(ps *position) {
	ps.mu.Lock()
	p := ps.primary
	ps.mu.Unlock()
	if p != nil {
		_ = p.Flush()
	}
}

// lameDuck runs the post-cutover straggler sweep. While the live migration
// is healthy its tap keeps forwarding synchronously and the sweep reuses
// it; otherwise (the source failed over mid-reshard) a fresh live tap is
// armed on the node now serving the ring position — no new snapshot
// needed, the drain passes themselves evict-and-re-apply whatever state
// that node still holds in the migrating range.
//
// A promoted or restarted node holds every entry it mirrored under the
// dead source's id and mints ids above the highest of them, so before
// re-arming against a node other than the one the migration has been
// reading, dst is fenced there: an entry both incarnations carried still
// dedups (no duplicate), and an id the dead source minted but never
// shipped or logged can no longer be mistaken for a new write's (no
// loss).
func (h *Host) lameDuck(m *rebalance.Migration, healthy bool, ring string, dst *tuplespace.Applier, pred func(tuplespace.Entry) bool, memoPred func(key string, keyed bool) bool) (int, error) {
	drain := h.spec.drain()
	total := 0
	if healthy {
		n, err := m.Drain(drain)
		total += n
		if err == nil {
			return total, nil
		}
	}
	curSrc := m.Src
	var lastErr error
	for attempt := 1; attempt <= splitAttempts; attempt++ {
		if attempt > 1 || healthy {
			// Give a mid-sweep failover time to promote before re-arming.
			h.clock.Sleep(h.spec.FailoverTimeout)
		}
		src, _ := h.servingChain(ring)
		if src.local.TS != curSrc {
			dst.Fence(src.local.TS.Mirrored() + 1)
			curSrc = src.local.TS
		}
		m2 := &rebalance.Migration{Clock: h.clock, Src: src.local.TS, Tap: src.tap, Dst: dst, Pred: pred, MemoPred: memoPred, Counters: h.Counters, OnEvent: m.OnEvent}
		src.tap.StartBuffer()
		if err := src.tap.GoLive(dst.Apply); err != nil {
			src.tap.Close()
			lastErr = err
			continue
		}
		n, err := m2.Drain(drain)
		total += n
		if err == nil {
			return total, nil
		}
		lastErr = err
	}
	return total, lastErr
}

// Merge folds split-born position childRing back into the parent it was
// forked from: every entry (keyed or not) migrates over with the same
// snapshot + live tap + evict protocol a split uses, the topology returns
// the child's hash points to the parent at a strictly newer epoch, and the
// child is retired. Only positions created by Split can merge, and only
// while their parent is still in the ring.
func (h *Host) Merge(childRing string) error {
	if h.reshard == nil {
		return errors.New("shardhost: Merge requires an elastic host")
	}
	if err := h.reshard.begin(); err != nil {
		return err
	}
	defer h.reshard.end()
	h.reshard.mu.Lock()
	parentRing, ok := h.reshard.parents[childRing]
	h.reshard.mu.Unlock()
	child := h.byRing(childRing)
	if !ok {
		return fmt.Errorf("shardhost: %q is not a split-born shard", childRing)
	}
	if h.isRetired(childRing) || h.isRetired(parentRing) {
		return fmt.Errorf("shardhost: %q or its parent %q is already retired", childRing, parentRing)
	}

	cur := h.router.Topology()
	var childM *shard.TopoMember
	haveParent := false
	for i := range cur.Members {
		switch cur.Members[i].ID {
		case childRing:
			childM = &cur.Members[i]
		case parentRing:
			haveParent = true
		}
	}
	if childM == nil || !haveParent {
		return fmt.Errorf("shardhost: merge %s: ring does not hold both child and parent", childRing)
	}
	next := shard.Topology{Epoch: cur.Epoch + 1}
	for _, m := range cur.Members {
		if m.ID == childRing {
			continue
		}
		if m.ID == parentRing {
			m.Labels = append(append([]string(nil), m.Labels...), childM.Labels...)
		}
		next.Members = append(next.Members, m)
	}

	parentNode, parentPrim := h.servingChain(parentRing)
	dst := tuplespace.NewApplier(parentNode.local.TS)
	pred := rebalance.Everything
	tc, phases := h.reshardTrace("merge", childRing)

	// Fork with retries — abort is safe until the first eviction (the
	// child keeps everything; the parent just resets the copies).
	var m *rebalance.Migration
	for attempt := 1; ; attempt++ {
		src, _ := h.servingChain(childRing)
		m = &rebalance.Migration{Clock: h.clock, Src: src.local.TS, Tap: src.tap, Dst: dst, Pred: pred, Counters: h.Counters, OnEvent: phases}
		_, ferr := m.Fork()
		if ferr == nil {
			break
		}
		m.Abort()
		h.Counters.Inc(metrics.CounterReshardAborted)
		if attempt >= splitAttempts {
			return fmt.Errorf("shardhost: merge %s: fork: %w", childRing, ferr)
		}
		h.clock.Sleep(h.spec.FailoverTimeout)
	}

	// From the first eviction on the parent holds the only copy of the
	// moved entries while the ring still routes the child's arc to the
	// child — the merge must run to completion.
	_, serr := m.SettleUntilClear(h.spec.TxnTTL)
	if serr != nil {
		m.Tap.Close()
		h.setErr(serr)
	}
	if parentPrim != nil {
		_ = parentPrim.Flush() // degrades the pair on failure; the next flush retries
	}

	// Cutover: the child's arc returns to the parent at a newer epoch; no
	// new members, so the master applies without a resolver.
	if perr := h.publishTopology(&next); perr != nil {
		h.setErr(perr)
	}
	if _, aerr := h.router.ApplyTopology(next, nil); aerr != nil {
		return fmt.Errorf("shardhost: merge %s: apply topology: %w", childRing, aerr)
	}

	// Lame duck, then retire the emptied child.
	_, derr := h.lameDuck(m, serr == nil, childRing, dst, pred, nil)
	h.setErr(derr)
	h.retire(child)
	if parentPrim != nil {
		_ = parentPrim.Flush()
	}
	h.Counters.Inc(metrics.CounterReshardMerges)
	h.Flight("master", obs.FlightEvent{
		Kind: obs.EventMergeDone, Shard: childRing, Epoch: next.Epoch,
		Detail: fmt.Sprintf("folded into %s", parentRing),
		Trace:  tc.TraceID, Span: tc.SpanID,
	})
	return nil
}

// mergeable restricts the rebalancer's merges to split-born shards whose
// parent is still in the ring.
func (h *Host) mergeable(ring string) bool {
	h.reshard.mu.Lock()
	parent, ok := h.reshard.parents[ring]
	h.reshard.mu.Unlock()
	return ok && !h.isRetired(ring) && !h.isRetired(parent)
}

// loadSamples reads every live position's cumulative op count and entry
// count off the node currently serving it — the rebalancer's input.
func (h *Host) loadSamples() []rebalance.Sample {
	var out []rebalance.Sample
	for _, ps := range h.snapshot() {
		ps.mu.Lock()
		l, retired := ps.serving.local, ps.retired
		ps.mu.Unlock()
		if retired {
			continue
		}
		st := l.TS.Stats()
		out = append(out, rebalance.Sample{ID: ps.ring, Ops: st.Writes + st.Reads + st.Takes, Entries: st.EntriesLive})
	}
	return out
}

// rebalancer is the AutoShard clock process: every ReshardInterval it
// samples shard load, advances the controller, and executes whatever
// split/merge it decides.
type rebalancer struct {
	h    *Host
	ctrl *rebalance.Controller

	mu     sync.Mutex
	quit   bool
	parker vclock.Waiter
}

func (h *Host) newRebalancer() *rebalancer {
	return &rebalancer{h: h, ctrl: rebalance.NewController(rebalance.ControllerConfig{
		SplitThreshold: h.spec.SplitThreshold,
		MergeThreshold: h.spec.MergeThreshold,
		Mergeable:      h.mergeable,
	})}
}

// Run ticks until Stop.
func (r *rebalancer) Run() {
	for {
		r.mu.Lock()
		if r.quit {
			r.mu.Unlock()
			return
		}
		r.parker = r.h.clock.NewWaiter()
		p := r.parker
		r.mu.Unlock()
		if woken := p.Wait(r.h.spec.ReshardInterval); woken {
			return // stopped
		}
		r.tick()
	}
}

func (r *rebalancer) tick() {
	h := r.h
	h.reshard.mu.Lock()
	stale := h.reshard.stale
	h.reshard.mu.Unlock()
	if stale {
		// A cutover's publish failed: keep offering the lookup service the
		// current ring until it takes it.
		t := h.router.Topology()
		h.setErr(h.publishTopology(&t))
	}
	actions := r.ctrl.Advance(h.clock.Now(), h.loadSamples())
	rates := r.ctrl.Rates()
	h.reshard.mu.Lock()
	h.reshard.rates = rates
	h.reshard.mu.Unlock()
	for _, a := range actions {
		var err error
		switch a.Kind {
		case rebalance.ActionSplit:
			_, err = h.Split(a.ID)
		case rebalance.ActionMerge:
			err = h.Merge(a.ID)
		}
		h.setErr(err)
	}
}

// Stop ends the loop.
func (r *rebalancer) Stop() {
	r.mu.Lock()
	r.quit = true
	p := r.parker
	r.mu.Unlock()
	if p != nil {
		p.Wake()
	}
}

// TopologyEpoch reports the master router's current ring topology epoch
// (0 when not elastic).
func (h *Host) TopologyEpoch() uint64 { return h.router.TopoEpoch() }

// SplitBorn lists the ring IDs of live split-born shards, in no particular
// order.
func (h *Host) SplitBorn() []string {
	if h.reshard == nil {
		return nil
	}
	h.reshard.mu.Lock()
	rings := make([]string, 0, len(h.reshard.parents))
	for ring := range h.reshard.parents {
		rings = append(rings, ring)
	}
	h.reshard.mu.Unlock()
	var out []string
	for _, ring := range rings {
		if !h.isRetired(ring) {
			out = append(out, ring)
		}
	}
	return out
}

// ShardIndex resolves a ring ID to its shard table index — how a caller
// addresses a split-born shard in KillPrimary or Restart.
func (h *Host) ShardIndex(ring string) (int, bool) {
	if ps := h.byRing(ring); ps != nil {
		return ps.idx, true
	}
	return 0, false
}
