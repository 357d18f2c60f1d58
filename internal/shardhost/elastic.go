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

// reshardState is the host-side bookkeeping of elastic mode.
type reshardState struct {
	mu       sync.Mutex
	inFlight bool               // one reshard at a time
	topo     *discovery.Listing // current topology record
	stale    bool               // a cutover's publish failed; the rebalancer retries it
	parents  map[string]string  // split-born ring → parent ring
	// rates is the rebalancer's last per-shard op-rate EWMA snapshot —
	// what /healthz shows so operators see what the controller sees.
	rates map[string]float64
}

// begin claims the host's one reshard slot for op (nil s: not elastic).
func (s *reshardState) begin(op string) error {
	if s == nil {
		return fmt.Errorf("shardhost: %s requires an elastic host", op)
	}
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

// withdraw takes the current topology record out of the lookup service.
func (s *reshardState) withdraw() {
	s.mu.Lock()
	l := s.topo
	s.topo = nil
	s.mu.Unlock()
	l.Withdraw()
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

// publishTopology lists t in the lookup service, leased by the Env (new
// record before the old one is withdrawn, so a watcher's lookup always
// finds at least one), and keeps the listing for the next rotation and
// Close. The publication is flight-recorded first and its causal stamp
// rides the record as t.Clk, so every adopting router's subsequent events
// order strictly after the publish — the property CheckTimeline holds
// reshard dumps to.
func (h *Host) publishTopology(t *shard.Topology) error {
	t.Clk = h.Flight("master", obs.FlightEvent{
		Kind: obs.EventTopoPublish, Shard: "ring", Epoch: t.Epoch,
		Detail: fmt.Sprintf("%d members", len(t.Members)),
	})
	var l *discovery.Listing
	enc, err := shard.EncodeTopology(*t)
	if err == nil {
		root, _ := h.RingID(0)
		l, err = discovery.List(h.env.Registrar, discovery.ServiceItem{
			Name:    "javaspace-topology",
			Address: root,
			Attributes: map[string]string{
				"type":              shard.TopoType,
				shard.AttrTopo:      enc,
				shard.AttrTopoEpoch: strconv.FormatUint(t.Epoch, 10),
			},
		}, h.env.Lease)
	}
	if err != nil {
		h.reshard.mu.Lock()
		h.reshard.stale = true
		h.reshard.mu.Unlock()
		return fmt.Errorf("shardhost: publish topology epoch %d: %w", t.Epoch, err)
	}
	l.Keep(h.clock, h.env.Spawn)
	h.reshard.mu.Lock()
	h.reshard.stale = false
	old := h.reshard.topo
	h.reshard.topo = l
	h.reshard.mu.Unlock()
	old.Withdraw()
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
	if err := h.reshard.begin("Split"); err != nil {
		return rep, err
	}
	defer h.reshard.end()
	if h.isRetired(parentRing) {
		return rep, fmt.Errorf("shardhost: ring member %q was merged away", parentRing)
	}

	next := h.router.Topology()
	next.Epoch++
	var keep, give []string
	for i, m := range next.Members {
		if m.ID == parentRing {
			keep, give = shard.SplitLabels(m.Labels)
			next.Members[i].Labels = keep
		}
	}
	if keep == nil {
		return rep, fmt.Errorf("shardhost: no ring member %q", parentRing)
	}
	if give == nil {
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
	childEpoch := child.epoch // read before its controllers run
	if child.primary != nil {
		h.env.Spawn(child.primary.Run)
		h.env.Spawn(child.backup.Run)
	}
	h.Flight(child.ring, obs.FlightEvent{Kind: obs.EventNodeStart, Shard: child.ring, Detail: "split child"})
	next.Members = append(next.Members, shard.TopoMember{ID: child.ring, Labels: give, Epoch: childEpoch})
	rep, err = h.move("split", parentRing, child, next)
	rep.Parent, rep.Child = parentRing, child.ring
	return rep, err
}

// move is the one reshard protocol, Split's (to joins the ring) and
// Merge's (from leaves it): migrate what next no longer gives ring member
// from into position to, cut over to next, sweep the stragglers. One root
// span tags every phase event, so `expt timeline` groups the reshard. A
// failed fork rolls back (a joining to is retired stillborn); from the
// first eviction on, the move runs to completion across source failovers.
func (h *Host) move(op, from string, to *position, next shard.Topology) (SplitReport, error) {
	var rep SplitReport
	tc, phases := h.reshardTrace(op, from)
	leaving := op == "merge"
	src := h.byRing(from)
	// Read before anything can fail to over: a joining member is handed to
	// routers by its construction-time handle, like a seed.
	to.mu.Lock()
	dst, handle, epoch := tuplespace.NewApplier(to.serving.local.TS), to.handle, to.epoch
	to.mu.Unlock()
	// Memos for the migrating bucket ship with it, so a mutation retried
	// after the cutover re-routes to its new owner and still dedups there.
	pred, memoPred := rebalance.Moving(shard.OwnerFunc(next), from, leaving)
	m := &rebalance.Migration{
		Clock: h.clock,
		Source: func() (*tuplespace.Space, *rebalance.Tap) {
			src.mu.Lock()
			defer src.mu.Unlock()
			return src.serving.local.TS, src.serving.tap
		},
		Dst: dst, Pred: pred, MemoPred: memoPred,
		Retry: h.spec.FailoverTimeout, Counters: h.Counters, OnEvent: phases,
	}

	// Fork — rolled back and retried across a source failover.
	var err error
	if rep.Migrated, rep.Retries, err = m.Fork(); err != nil {
		if !leaving {
			h.retire(to) // stillborn
		}
		return rep, fmt.Errorf("shardhost: %s %s: fork: %w", op, from, err)
	}

	// Settle: evict the migrating range off the source until no matching
	// entry is held by an in-flight transaction. A failure is recorded,
	// not returned: past the first eviction the lame duck below finishes
	// the eviction against whichever node serves by then.
	rep.Evicted, err = m.SettleUntilClear(h.spec.TxnTTL)
	h.setErr(err)

	// to's own standby must hold everything before routers cut over, so a
	// failover of to directly after the reshard loses nothing.
	h.flushPrimary(to)

	// Cutover: topology record first (any watcher that can see a joining
	// member's registration then also sees the ring that places it),
	// master retargets in-process, a joining member registers last.
	cutStart := h.clock.Now()
	if err := h.publishTopology(&next); err != nil {
		// Remote clients keep the previous ring — consistent but stale —
		// and keep writing the moved range to from, which the drain below
		// keeps sweeping across.
		h.setErr(err)
	}
	resolve := func(ring string) (shard.Shard, error) {
		if ring == to.ring {
			return shard.Shard{ID: ring, Space: handle, Epoch: epoch}, nil
		}
		return shard.Shard{}, fmt.Errorf("shardhost: unexpected new ring member %q", ring)
	}
	if _, err := h.router.ApplyTopology(next, resolve); err != nil {
		return rep, fmt.Errorf("shardhost: %s %s: apply topology: %w", op, from, err)
	}
	if !leaving {
		h.setErr(h.announce(to, false))
		h.reshard.mu.Lock()
		h.reshard.parents[to.ring] = from
		h.reshard.mu.Unlock()
	}
	rep.Cutover = h.clock.Since(cutStart)

	// Lame duck: sweep stragglers written by not-yet-converged routers
	// until the drain window outlasts every watcher's poll.
	drained, err := m.Drain(h.spec.drain())
	rep.Evicted += drained
	h.setErr(err)

	ev := obs.FlightEvent{
		Kind: obs.EventSplitDone, Shard: from, Epoch: next.Epoch,
		Detail: fmt.Sprintf("child %s: %d migrated, %d evicted", to.ring, rep.Migrated, rep.Evicted),
		Trace:  tc.TraceID, Span: tc.SpanID,
	}
	counter := metrics.CounterReshardSplits
	if leaving {
		h.retire(src)
		ev.Kind, ev.Detail, counter = obs.EventMergeDone, "folded into "+to.ring, metrics.CounterReshardMerges
	}
	h.flushPrimary(to)
	h.Counters.Inc(counter)
	h.Flight("master", ev)
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

// Merge folds split-born position childRing back into the parent it was
// forked from: every entry (keyed or not) migrates over with the same
// snapshot + live tap + evict protocol a split uses, the topology returns
// the child's hash points to the parent at a strictly newer epoch, and the
// child is retired. Only positions created by Split can merge, and only
// while their parent is still in the ring.
func (h *Host) Merge(childRing string) error {
	if err := h.reshard.begin("Merge"); err != nil {
		return err
	}
	defer h.reshard.end()
	parentRing, ok := h.mergeParent(childRing)
	if !ok {
		return fmt.Errorf("shardhost: %q is not a live split-born shard with a live parent", childRing)
	}

	cur := h.router.Topology()
	next := shard.Topology{Epoch: cur.Epoch + 1}
	var give []string
	parent := -1
	for _, m := range cur.Members {
		switch m.ID {
		case childRing:
			give = m.Labels
			continue
		case parentRing:
			parent = len(next.Members)
		}
		next.Members = append(next.Members, m)
	}
	if give == nil || parent < 0 {
		return fmt.Errorf("shardhost: merge %s: ring does not hold both child and parent", childRing)
	}
	next.Members[parent].Labels = append(next.Members[parent].Labels, give...)

	_, err := h.move("merge", childRing, h.byRing(parentRing), next)
	return err
}

// mergeParent returns the parent split-born ring was forked from, while
// both are live: only such a ring may merge.
func (h *Host) mergeParent(ring string) (string, bool) {
	h.reshard.mu.Lock()
	parent, ok := h.reshard.parents[ring]
	h.reshard.mu.Unlock()
	return parent, ok && !h.isRetired(ring) && !h.isRetired(parent)
}

// loadSamples reads every live position's cumulative op count off the
// node currently serving it — the rebalancer's input.
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
		out = append(out, rebalance.Sample{ID: ps.ring, Ops: st.Writes + st.Reads + st.Takes})
	}
	return out
}

// rebalancer is the AutoShard clock process: every ReshardInterval it
// samples shard load, advances the controller, and executes whatever
// split/merge it decides.
type rebalancer struct {
	h    *Host
	ctrl *rebalance.Controller
	loop vclock.Loop
}

func (h *Host) newRebalancer() *rebalancer {
	return &rebalancer{h: h, ctrl: rebalance.NewController(rebalance.ControllerConfig{
		SplitThreshold: h.spec.SplitThreshold,
		MergeThreshold: h.spec.MergeThreshold,
		Mergeable:      func(ring string) bool { _, ok := h.mergeParent(ring); return ok },
	})}
}

// Run ticks until Stop.
func (r *rebalancer) Run() {
	for r.loop.Tick(r.h.clock, r.h.spec.ReshardInterval) {
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
func (r *rebalancer) Stop() { r.loop.Stop() }

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
