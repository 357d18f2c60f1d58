package core

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
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// Elastic resharding glue: with Config.Elastic the framework can grow and
// shrink the ring while a job runs. SplitShard forks half of a hot shard's
// hash arc into a freshly built shard server without pausing the source —
// snapshot, live journal tap, eviction sweep, epoch-fenced topology
// cutover — and MergeShards folds a split-born shard back into its parent.
// With Config.AutoShard a load-driven controller (internal/rebalance)
// issues those calls itself from per-shard op-rate EWMAs. The protocol
// lives in internal/rebalance; this file owns the framework wiring: child
// shard construction, topology publication, and the bookkeeping that keeps
// sweepers, replication pairs and the health surface consistent as the
// shard tables grow.

// splitAttempts bounds how often a reshard re-arms against a freshly
// promoted node after the node it was migrating from failed mid-flight.
const splitAttempts = 3

// reshardState is the framework-side bookkeeping of elastic mode.
type reshardState struct {
	mu       sync.Mutex
	inFlight bool              // one reshard at a time
	topoReg  uint64            // current topology record registration
	parents  map[string]string // split-born ring → parent ring
	retired  map[string]bool   // merged-away (or stillborn) ring positions
	idxOf    map[string]int    // ring position → shard table index
	regOf    map[string]uint64 // unreplicated child ring → javaspace registration
	// rates is the rebalancer's last per-shard op-rate EWMA snapshot —
	// what /healthz shows so operators see what the controller sees.
	rates   map[string]float64
	lastErr error
}

func (s *reshardState) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inFlight {
		return errors.New("core: a reshard is already in flight")
	}
	s.inFlight = true
	return nil
}

func (s *reshardState) end() {
	s.mu.Lock()
	s.inFlight = false
	s.mu.Unlock()
}

func (s *reshardState) setErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// growSweeper is the master's sweeper over a shard set that changes size:
// split-born shards join the expired-transaction sweep, merged-away ones
// leave it. The master captures one growSweeper at construction and never
// needs to know the membership moved underneath it.
type growSweeper struct {
	mu   sync.Mutex
	list []interface{ Sweep() int }
}

// Sweep implements the master's sweeper contract across all members.
func (g *growSweeper) Sweep() int {
	g.mu.Lock()
	list := append([]interface{ Sweep() int }(nil), g.list...)
	g.mu.Unlock()
	n := 0
	for _, s := range list {
		n += s.Sweep()
	}
	return n
}

func (g *growSweeper) add(s interface{ Sweep() int }) {
	g.mu.Lock()
	g.list = append(g.list, s)
	g.mu.Unlock()
}

func (g *growSweeper) remove(s interface{ Sweep() int }) {
	g.mu.Lock()
	for i, have := range g.list {
		if have == s {
			g.list = append(g.list[:i], g.list[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
}

// sweepAt returns shard i's swap-able sweeper; the shard tables grow under
// replMu, so indexed access does too.
func (f *Framework) sweepAt(i int) *swapSweeper {
	f.replMu.Lock()
	defer f.replMu.Unlock()
	return f.sweeps[i]
}

// initElastic publishes the initial topology (epoch 1: every seed shard
// with its default labels) and primes the reshard bookkeeping. Publishing
// before the first split makes topology records authoritative from the
// start: a watcher that sees any topology record disables its legacy
// add-only membership growth, so a reshard can never race a stale
// registration back into the ring.
func (f *Framework) initElastic(shards []shard.Shard) {
	f.reshard = &reshardState{
		parents: make(map[string]string),
		retired: make(map[string]bool),
		idxOf:   make(map[string]int),
		regOf:   make(map[string]uint64),
	}
	for i, s := range shards {
		f.reshard.idxOf[s.ID] = i
	}
	t := f.router.Topology()
	t.Epoch = 1
	if _, err := f.router.ApplyTopology(t, nil); err != nil {
		panic(fmt.Sprintf("core: initial topology: %v", err)) // unreachable: all members known
	}
	if err := f.publishTopology(&t); err != nil {
		panic(fmt.Sprintf("core: initial topology: %v", err)) // unreachable: plain JSON struct
	}
}

// publishTopology registers t in the lookup service (new record before the
// old one is cancelled, so a watcher's lookup always finds at least one)
// and records the registration for the next rotation. The publication is
// flight-recorded first and its causal stamp rides the record as t.Clk, so
// every adopting router's subsequent events order strictly after the
// publish — the property CheckTimeline holds reshard dumps to.
func (f *Framework) publishTopology(t *shard.Topology) error {
	t.Clk = f.flight("master", obs.FlightEvent{
		Kind: obs.EventTopoPublish, Shard: "ring", Epoch: t.Epoch,
		Detail: fmt.Sprintf("%d members", len(t.Members)),
	})
	enc, err := shard.EncodeTopology(*t)
	if err != nil {
		return err
	}
	id := f.Lookup.Register(discovery.ServiceItem{
		Name:    "javaspace-topology",
		Address: f.Cluster.MasterAddr,
		Attributes: map[string]string{
			"type":              shard.TopoType,
			shard.AttrTopo:      enc,
			shard.AttrTopoEpoch: strconv.FormatUint(t.Epoch, 10),
		},
	}, 0)
	f.reshard.mu.Lock()
	old := f.reshard.topoReg
	f.reshard.topoReg = id
	f.reshard.mu.Unlock()
	if old != 0 {
		_ = f.Lookup.Cancel(old)
	}
	return nil
}

// servingChain resolves ring to the node currently serving it: the raw
// space a migration snapshots and evicts from, the migration tap sitting
// in that node's journal chain, its primary controller (nil when
// unreplicated), and the applier that fed the node while it stood by (nil
// for a construction-time primary — the node's Seqs are then its own).
// After a failover this follows the promoted node — which is the point: a
// reshard always works against whoever serves now.
func (f *Framework) servingChain(ring string) (*space.Local, *rebalance.Tap, *replica.Primary, *tuplespace.Applier) {
	f.reshard.mu.Lock()
	idx, ok := f.reshard.idxOf[ring]
	f.reshard.mu.Unlock()
	if !ok {
		return nil, nil, nil, nil
	}
	f.replMu.Lock()
	var rs *replShard
	if idx < len(f.repls) {
		rs = f.repls[idx]
	}
	l, tap := f.Shards[idx], f.taps[idx]
	f.replMu.Unlock()
	if rs != nil {
		rs.mu.Lock()
		node, p := rs.primaryNode, rs.primary
		app := node.applier
		rs.mu.Unlock()
		return node.local, node.tap, p, app
	}
	return l, tap, nil, nil
}

// childShard is a split's freshly built destination before it enters the
// ring.
type childShard struct {
	idx     int
	ring    string
	local   *space.Local
	durable *space.Durable
	tap     *rebalance.Tap
	rs      *replShard
	handle  space.Space // master-side handle (gated/wrapped like a seed's)
	epoch   uint64
}

// buildChildShard assembles a new shard server at runtime with exactly the
// seed loop's layering: listener, space (durable when configured), journal
// chain WAL → tap → replication switch sink, service handlers, replication
// pair, service gate, obs middleware. The child joins the framework's
// shard tables (so sweepers, failover, restarts and health all see it) but
// is NOT registered in the lookup service: it must stay unreachable to
// routers until the split's cutover publishes the topology that places it.
func (f *Framework) buildChildShard() (*childShard, error) {
	clus := f.Cluster
	f.replMu.Lock()
	idx := len(f.Shards)
	f.replMu.Unlock()
	addr := fmt.Sprintf("%s.shard%d", clus.MasterAddr, idx)
	srv := transport.NewServer()
	clus.Net.Listen(addr, srv)

	var rs *replShard
	var psw *replica.SwitchSink
	if f.cfg.Replicas > 0 {
		rs = &replShard{idx: idx, ringID: addr}
		psw = replica.NewSwitchSink()
	}
	var sink tuplespace.RecordSink
	if psw != nil {
		sink = psw
	}
	tap := rebalance.NewTap(sink)
	sink = tap

	var l *space.Local
	var d *space.Durable
	if f.cfg.DataDir != "" {
		dopts := f.durableOptionsAt(idx, addr)
		dopts.Tee = sink
		var err error
		l, d, err = space.NewLocalDurable(f.Clock, dopts)
		if err != nil {
			return nil, fmt.Errorf("core: durable split shard %d: %w", idx, err)
		}
	} else {
		l = space.NewLocal(f.Clock)
		if err := l.TS.AttachJournal(tuplespace.NewJournalSink(sink)); err != nil {
			return nil, fmt.Errorf("core: split shard %d journal: %w", idx, err)
		}
	}
	l.TS.SetMemoCounters(f.Retries)
	l.TS.SetFlightSink(f.memoFlightSink(addr, addr))
	if f.cfg.MaxWaiters > 0 {
		l.TS.SetMaxWaiters(f.cfg.MaxWaiters)
	}
	svc := space.NewService(l, srv)
	var p *replica.Primary
	if rs != nil {
		p = f.setupReplica(rs, l, srv, psw, tap, d)
	}
	var handle space.Space = l
	var gate *transport.ServiceGate
	if f.cfg.SpaceOpCost > 0 {
		// The child pays for server CPU like every seed shard — the whole
		// point of splitting a saturated shard is a second gate.
		gate = transport.NewServiceGate(f.Clock, f.cfg.SpaceOpCost)
		handle = gated(l, gate)
	}
	f.configureAdmission(svc, addr, gate)
	if reg := f.cfg.Obs.Reg(); reg != nil {
		srv.WrapPrefix("space.", obs.ServerMiddleware(f.Clock, reg.Histogram(metrics.HistShardServe(idx))))
		h := reg.Histogram(metrics.HistShardServe(idx))
		reg.RegisterGauge(metrics.GaugeShardOps(idx), func() int64 { return int64(h.Count()) })
	}
	var epoch uint64
	if rs != nil {
		handle = p.Wrap(handle)
		epoch = 1
	}

	sweep := &swapSweeper{s: l.Mgr}
	f.replMu.Lock()
	f.Shards = append(f.Shards, l)
	f.Durables = append(f.Durables, d)
	f.shardSrvs = append(f.shardSrvs, srv)
	f.shardAddrs = append(f.shardAddrs, addr)
	f.sweeps = append(f.sweeps, sweep)
	f.taps = append(f.taps, tap)
	f.gates = append(f.gates, gate)
	f.services = append(f.services, svc)
	if rs != nil {
		f.repls = append(f.repls, rs)
	}
	f.replMu.Unlock()
	f.sweeper.add(sweep)
	f.reshard.mu.Lock()
	f.reshard.idxOf[addr] = idx
	f.reshard.mu.Unlock()
	if rs != nil {
		// Heartbeats start now (when a run is active) so the child's backup
		// never mistakes the pre-registration window for a dead primary.
		f.spawnRepl(p.Run)
		rs.mu.Lock()
		b := rs.backup
		rs.mu.Unlock()
		f.spawnRepl(b.Run)
	}
	f.flight(addr, obs.FlightEvent{Kind: obs.EventNodeStart, Shard: addr, Detail: "split child"})
	return &childShard{idx: idx, ring: addr, local: l, durable: d, tap: tap, rs: rs, handle: handle, epoch: epoch}, nil
}

// retireChild takes a split-born shard out of service: registrations
// cancelled, replication controllers stopped, spaces closed, sweeper
// removed. Used after a merge has emptied the child, and for a stillborn
// child whose split failed before cutover.
func (f *Framework) retireChild(ring string, idx int) {
	f.replMu.Lock()
	var rs *replShard
	if idx < len(f.repls) {
		rs = f.repls[idx]
	}
	l, d, sweep := f.Shards[idx], f.Durables[idx], f.sweeps[idx]
	f.replMu.Unlock()

	f.reshard.mu.Lock()
	f.reshard.retired[ring] = true
	reg := f.reshard.regOf[ring]
	delete(f.reshard.regOf, ring)
	f.reshard.mu.Unlock()

	f.sweeper.remove(sweep)
	if reg != 0 {
		_ = f.Lookup.Cancel(reg)
	}
	if rs != nil {
		rs.mu.Lock()
		stops := append([]interface{ Stop() }(nil), rs.stops...)
		nodes := []*replNode{rs.primaryNode, rs.backupNode}
		preg, breg := rs.regID, rs.backupRegID
		rs.regID, rs.backupRegID = 0, 0
		rs.mu.Unlock()
		for _, s := range stops {
			s.Stop()
		}
		if preg != 0 {
			_ = f.Lookup.Cancel(preg)
		}
		if breg != 0 {
			_ = f.Lookup.Cancel(breg)
		}
		for _, n := range nodes {
			if n == nil {
				continue
			}
			n.local.TS.Close()
			if n.durable != nil {
				_ = n.durable.Close()
			}
		}
		return
	}
	l.TS.Close()
	if d != nil {
		_ = d.Close()
	}
}

// SplitReport describes one completed shard split.
type SplitReport struct {
	Parent, Child string
	// Migrated is the snapshot size the child was forked from; Evicted
	// counts entries swept off the parent afterwards (settle + lame duck).
	Migrated, Evicted int
	// Retries counts fork attempts abandoned to a source failover.
	Retries int
	// Cutover is the routing blackout the master observed: from the moment
	// the source stopped being the range's owner of record to the topology
	// being applied and the child registered. Remote workers add at most
	// one WatchInterval of convergence lag on top.
	Cutover time.Duration
}

// SplitShard splits ring member parentRing online: half of its hash-point
// labels (and so roughly half its key arc) move to a freshly built shard.
// The source serves throughout; the migrating range is forked by snapshot,
// kept converged through a live journal tap, evicted once the child holds
// every copy, and cut over by publishing a strictly-newer ring topology.
// Entries are never lost: from the first eviction on, the split always
// runs to completion, re-arming against a promoted standby if the source
// fails mid-flight. Requires Config.Elastic.
func (f *Framework) SplitShard(parentRing string) (SplitReport, error) {
	var rep SplitReport
	if f.reshard == nil {
		return rep, errors.New("core: SplitShard requires Config.Elastic")
	}
	if err := f.reshard.begin(); err != nil {
		return rep, err
	}
	defer f.reshard.end()
	f.reshard.mu.Lock()
	retired := f.reshard.retired[parentRing]
	f.reshard.mu.Unlock()
	if retired {
		return rep, fmt.Errorf("core: ring member %q was merged away", parentRing)
	}

	cur := f.router.Topology()
	var parent *shard.TopoMember
	for i := range cur.Members {
		if cur.Members[i].ID == parentRing {
			parent = &cur.Members[i]
		}
	}
	if parent == nil {
		return rep, fmt.Errorf("core: no ring member %q", parentRing)
	}
	keep, give := shard.SplitLabels(parent.Labels)
	if len(keep) == 0 || len(give) == 0 {
		return rep, fmt.Errorf("core: ring member %q owns too few points to split", parentRing)
	}

	child, err := f.buildChildShard()
	if err != nil {
		return rep, err
	}
	rep.Parent, rep.Child = parentRing, child.ring

	// The split is one control-plane operation: a root span whose context
	// tags every phase event, so `expt timeline` groups the whole reshard.
	var tc obs.TraceContext
	if f.cfg.Obs != nil {
		sp := f.cfg.Obs.T().StartRoot(f.Clock, "reshard:split", "master")
		tc = sp.Context()
		sp.End()
	}
	phases := f.reshardPhaseSink("split", parentRing, tc)

	next := shard.Topology{Epoch: cur.Epoch + 1}
	for _, m := range cur.Members {
		if m.ID == parentRing {
			m.Labels = keep
		}
		next.Members = append(next.Members, m)
	}
	next.Members = append(next.Members, shard.TopoMember{ID: child.ring, Labels: give, Epoch: child.epoch})

	pred := rebalance.KeyedTo(shard.OwnerFunc(next), child.ring)
	// Memos for the migrating bucket ship with it, so a mutation retried
	// after the cutover re-routes to the child and still dedups there.
	memoPred := rebalance.KeyedMemosTo(shard.OwnerFunc(next), child.ring)
	dst := tuplespace.NewApplier(child.local.TS)

	// Phase 1 — fork. Before any eviction the split can be rolled back
	// wholesale (the child just resets), so a source failover here means
	// waiting out the promotion and forking against whichever node then
	// serves the ring position.
	var m *rebalance.Migration
	for attempt := 1; ; attempt++ {
		src, tap, _, _ := f.servingChain(parentRing)
		m = &rebalance.Migration{Clock: f.Clock, Src: src.TS, Tap: tap, Dst: dst, Pred: pred, MemoPred: memoPred, Counters: f.Reshard, OnEvent: phases}
		n, ferr := m.Fork()
		if ferr == nil {
			rep.Migrated = n
			break
		}
		m.Abort()
		f.Reshard.Inc(metrics.CounterReshardAborted)
		if attempt >= splitAttempts {
			f.retireChild(child.ring, child.idx)
			return rep, fmt.Errorf("core: split %s: fork: %w", parentRing, ferr)
		}
		rep.Retries++
		f.Clock.Sleep(f.cfg.FailoverTimeout)
	}

	// Phase 2 — settle: evict the migrating range off the source until no
	// matching entry is held by an in-flight transaction. From the first
	// eviction on the split must complete — rolling back would drop entries
	// whose only authoritative copy is now the child's — so a failure here
	// does not abort; the lame-duck sweep below finishes the eviction
	// against whichever node serves after the dust settles.
	evicted, serr := m.SettleUntilClear(f.cfg.TxnTTL)
	rep.Evicted += evicted
	if serr != nil {
		m.Tap.Close()
		f.reshard.setErr(serr)
	}

	// The child's own standby must hold everything before routers cut
	// over, so a child failover directly after the split loses nothing.
	if child.rs != nil {
		child.rs.mu.Lock()
		cp := child.rs.primary
		child.rs.mu.Unlock()
		_ = cp.Flush()
	}

	// Phase 3 — cutover: topology record first (any watcher that can see
	// the child's registration then also sees the ring that places it),
	// master retargets in-process, child registers last.
	cutStart := f.Clock.Now()
	if perr := f.publishTopology(&next); perr != nil {
		return rep, perr // unreachable: plain JSON struct
	}
	resolve := func(ring string) (shard.Shard, error) {
		if ring == child.ring {
			return shard.Shard{ID: ring, Space: child.handle, Epoch: child.epoch}, nil
		}
		return shard.Shard{}, fmt.Errorf("core: unexpected new ring member %q", ring)
	}
	if _, aerr := f.router.ApplyTopology(next, resolve); aerr != nil {
		return rep, fmt.Errorf("core: split %s: apply topology: %w", parentRing, aerr)
	}
	regID := f.registerShard(child.idx, child.durable, false)
	f.reshard.mu.Lock()
	f.reshard.parents[child.ring] = parentRing
	if child.rs == nil {
		f.reshard.regOf[child.ring] = regID
	}
	f.reshard.mu.Unlock()
	rep.Cutover = f.Clock.Since(cutStart)

	// Phase 4 — lame duck: sweep stragglers written by not-yet-converged
	// routers until the drain window outlasts every watcher's poll.
	drained, derr := f.lameDuck(m, serr == nil, parentRing, dst, pred, memoPred)
	rep.Evicted += drained
	f.reshard.setErr(derr)

	if child.rs != nil {
		child.rs.mu.Lock()
		cp := child.rs.primary
		child.rs.mu.Unlock()
		_ = cp.Flush()
	}
	f.Reshard.Inc(metrics.CounterReshardSplits)
	f.flight("master", obs.FlightEvent{
		Kind: obs.EventSplitDone, Shard: parentRing, Epoch: next.Epoch,
		Detail: fmt.Sprintf("child %s: %d migrated, %d evicted", child.ring, rep.Migrated, rep.Evicted),
		Trace:  tc.TraceID, Span: tc.SpanID,
	})
	return rep, nil
}

// lameDuck runs the post-cutover straggler sweep. While the live migration
// is healthy its tap keeps forwarding synchronously and the sweep reuses
// it; otherwise (the source failed over mid-reshard) a fresh live tap is
// armed on the node now serving the ring position — no new snapshot
// needed, the drain passes themselves evict-and-re-apply whatever state
// that node still holds in the migrating range.
//
// A promoted node assigns its own Seqs, so before re-arming against a
// node other than the one the migration has been reading, dst is rebound
// to the new incarnation: the node's own standby-era applier supplies the
// promoted-Seq → old-Seq mapping, keeping the dedup exact — an entry both
// incarnations carried is recognized (no duplicate), and a new write whose
// Seq happens to equal an unrelated old one is not mistaken for a dup (no
// loss). Without a mapping (an unreplicated source that was crash-
// restarted) the rebind still fences the namespaces so no collision can
// drop an entry.
func (f *Framework) lameDuck(m *rebalance.Migration, healthy bool, ring string, dst *tuplespace.Applier, pred func(tuplespace.Entry) bool, memoPred func(key string, keyed bool) bool) (int, error) {
	total := 0
	if healthy {
		n, err := m.Drain(f.cfg.ReshardDrain)
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
			f.Clock.Sleep(f.cfg.FailoverTimeout)
		}
		src, tap, _, srcApp := f.servingChain(ring)
		if src.TS != curSrc {
			var xlat map[uint64]uint64
			if srcApp != nil {
				xlat = srcApp.SeqMapping()
			}
			dst.Rebind(xlat)
			curSrc = src.TS
		}
		m2 := &rebalance.Migration{Clock: f.Clock, Src: src.TS, Tap: tap, Dst: dst, Pred: pred, MemoPred: memoPred, Counters: f.Reshard, OnEvent: m.OnEvent}
		tap.StartBuffer()
		if err := tap.GoLive(dst.Apply); err != nil {
			tap.Close()
			lastErr = err
			continue
		}
		n, err := m2.Drain(f.cfg.ReshardDrain)
		total += n
		if err == nil {
			return total, nil
		}
		lastErr = err
	}
	return total, lastErr
}

// MergeShards folds split-born shard childRing back into the parent it was
// forked from: every entry (keyed or not) migrates over with the same
// snapshot + live tap + evict protocol a split uses, the topology returns
// the child's hash points to the parent at a strictly newer epoch, and the
// child is retired. Requires Config.Elastic; only shards created by
// SplitShard can merge, and only while their parent is still in the ring.
func (f *Framework) MergeShards(childRing string) error {
	if f.reshard == nil {
		return errors.New("core: MergeShards requires Config.Elastic")
	}
	if err := f.reshard.begin(); err != nil {
		return err
	}
	defer f.reshard.end()
	f.reshard.mu.Lock()
	parentRing, ok := f.reshard.parents[childRing]
	idx := f.reshard.idxOf[childRing]
	dead := f.reshard.retired[childRing] || f.reshard.retired[parentRing]
	f.reshard.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: %q is not a split-born shard", childRing)
	}
	if dead {
		return fmt.Errorf("core: %q or its parent %q is already retired", childRing, parentRing)
	}

	cur := f.router.Topology()
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
		return fmt.Errorf("core: merge %s: ring does not hold both child and parent", childRing)
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

	parentLocal, _, parentPrim, _ := f.servingChain(parentRing)
	dst := tuplespace.NewApplier(parentLocal.TS)
	pred := rebalance.Everything

	var tc obs.TraceContext
	if f.cfg.Obs != nil {
		sp := f.cfg.Obs.T().StartRoot(f.Clock, "reshard:merge", "master")
		tc = sp.Context()
		sp.End()
	}
	phases := f.reshardPhaseSink("merge", childRing, tc)

	// Fork with retries — abort is safe until the first eviction (the
	// child keeps everything; the parent just resets the copies).
	var m *rebalance.Migration
	for attempt := 1; ; attempt++ {
		src, tap, _, _ := f.servingChain(childRing)
		m = &rebalance.Migration{Clock: f.Clock, Src: src.TS, Tap: tap, Dst: dst, Pred: pred, Counters: f.Reshard, OnEvent: phases}
		_, ferr := m.Fork()
		if ferr == nil {
			break
		}
		m.Abort()
		f.Reshard.Inc(metrics.CounterReshardAborted)
		if attempt >= splitAttempts {
			return fmt.Errorf("core: merge %s: fork: %w", childRing, ferr)
		}
		f.Clock.Sleep(f.cfg.FailoverTimeout)
	}

	_, serr := m.SettleUntilClear(f.cfg.TxnTTL)
	if serr != nil {
		m.Tap.Close()
		f.reshard.setErr(serr)
	}
	if parentPrim != nil {
		_ = parentPrim.Flush()
	}

	// Cutover: the child's arc returns to the parent at a newer epoch; no
	// new members, so the master applies without a resolver.
	if perr := f.publishTopology(&next); perr != nil {
		return perr // unreachable: plain JSON struct
	}
	if _, aerr := f.router.ApplyTopology(next, nil); aerr != nil {
		return fmt.Errorf("core: merge %s: apply topology: %w", childRing, aerr)
	}

	// Lame duck, then retire the emptied child.
	_, derr := f.lameDuck(m, serr == nil, childRing, dst, pred, nil)
	f.reshard.setErr(derr)
	f.retireChild(childRing, idx)
	if parentPrim != nil {
		_ = parentPrim.Flush()
	}
	f.Reshard.Inc(metrics.CounterReshardMerges)
	f.flight("master", obs.FlightEvent{
		Kind: obs.EventMergeDone, Shard: childRing, Epoch: next.Epoch,
		Detail: fmt.Sprintf("folded into %s", parentRing),
		Trace:  tc.TraceID, Span: tc.SpanID,
	})
	return nil
}

// mergeable restricts the rebalancer's merges to split-born shards whose
// parent is still in the ring.
func (f *Framework) mergeable(ring string) bool {
	f.reshard.mu.Lock()
	defer f.reshard.mu.Unlock()
	parent, ok := f.reshard.parents[ring]
	return ok && !f.reshard.retired[ring] && !f.reshard.retired[parent]
}

// loadSamples reads every live shard's cumulative op count and entry count
// off the node currently serving it — the rebalancer's controller input.
func (f *Framework) loadSamples() []rebalance.Sample {
	f.replMu.Lock()
	addrs := append([]string(nil), f.shardAddrs...)
	locals := append([]*space.Local(nil), f.Shards...)
	repls := append([]*replShard(nil), f.repls...)
	f.replMu.Unlock()
	f.reshard.mu.Lock()
	retired := make(map[string]bool, len(f.reshard.retired))
	for r := range f.reshard.retired {
		retired[r] = true
	}
	f.reshard.mu.Unlock()
	var out []rebalance.Sample
	for i := range locals {
		if retired[addrs[i]] {
			continue
		}
		l := locals[i]
		if i < len(repls) && repls[i] != nil {
			repls[i].mu.Lock()
			if node := repls[i].primaryNode; node != nil {
				l = node.local
			}
			repls[i].mu.Unlock()
		}
		st := l.TS.Stats()
		out = append(out, rebalance.Sample{ID: addrs[i], Ops: st.Writes + st.Reads + st.Takes, Entries: st.EntriesLive})
	}
	return out
}

// rebalancer is the AutoShard clock process: every ReshardInterval it
// samples shard load, advances the controller, and executes whatever
// split/merge it decides.
type rebalancer struct {
	f    *Framework
	ctrl *rebalance.Controller

	mu     sync.Mutex
	quit   bool
	parker vclock.Waiter
}

func (f *Framework) newRebalancer() *rebalancer {
	return &rebalancer{f: f, ctrl: rebalance.NewController(rebalance.ControllerConfig{
		SplitThreshold: f.cfg.SplitThreshold,
		MergeThreshold: f.cfg.MergeThreshold,
		Hysteresis:     f.cfg.ReshardHysteresis,
		Cooldown:       f.cfg.ReshardCooldown,
		MaxShards:      f.cfg.MaxShards,
		Mergeable:      f.mergeable,
	})}
}

// Run ticks until Stop — a clock process on Run's group.
func (r *rebalancer) Run() {
	for {
		r.mu.Lock()
		if r.quit {
			r.mu.Unlock()
			return
		}
		r.parker = r.f.Clock.NewWaiter()
		p := r.parker
		r.mu.Unlock()
		if woken := p.Wait(r.f.cfg.ReshardInterval); woken {
			return // stopped
		}
		r.tick()
	}
}

func (r *rebalancer) tick() {
	f := r.f
	actions := r.ctrl.Advance(f.Clock.Now(), f.loadSamples())
	rates := r.ctrl.Rates()
	f.reshard.mu.Lock()
	f.reshard.rates = rates
	f.reshard.mu.Unlock()
	for _, a := range actions {
		var err error
		switch a.Kind {
		case rebalance.ActionSplit:
			_, err = f.SplitShard(a.ID)
		case rebalance.ActionMerge:
			err = f.MergeShards(a.ID)
		}
		f.reshard.setErr(err)
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
func (f *Framework) TopologyEpoch() uint64 {
	if f.router == nil {
		return 0
	}
	return f.router.TopoEpoch()
}

// SplitBorn lists the ring IDs of live split-born shards, in no particular
// order.
func (f *Framework) SplitBorn() []string {
	if f.reshard == nil {
		return nil
	}
	f.reshard.mu.Lock()
	defer f.reshard.mu.Unlock()
	var out []string
	for ring := range f.reshard.parents {
		if !f.reshard.retired[ring] {
			out = append(out, ring)
		}
	}
	return out
}

// ShardIndex resolves a ring ID to its shard table index — how a chaos
// script addresses a split-born shard in KillShardPrimary or RestartShard.
func (f *Framework) ShardIndex(ring string) (int, bool) {
	if f.reshard == nil {
		return 0, false
	}
	f.reshard.mu.Lock()
	defer f.reshard.mu.Unlock()
	idx, ok := f.reshard.idxOf[ring]
	return idx, ok
}

// ReshardErr returns the most recent background reshard error, if any —
// settle timeouts, drain re-arms, controller-executed action failures.
func (f *Framework) ReshardErr() error {
	if f.reshard == nil {
		return nil
	}
	f.reshard.mu.Lock()
	defer f.reshard.mu.Unlock()
	return f.reshard.lastErr
}
