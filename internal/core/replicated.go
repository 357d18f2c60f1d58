package core

import (
	"errors"
	"fmt"
	"path/filepath"
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
)

// Replication glue: with Config.Replicas > 0 every hosted shard becomes a
// primary/backup pair. The primary's journal records stream to a hot
// standby on its own server ("<shard>.backup"); the standby watches the
// heartbeat stream and the primary's lookup lease and promotes itself
// when both agree the primary is gone, re-registering under the shard's
// ring position at an incremented epoch. The master's router retargets in
// place; workers resolve the promoted registration through the lookup
// service on their next failed call. See internal/replica for the
// protocol itself.

// replNode is one physical node of a replicated shard: a server address,
// the space living behind it, and the switchable journal sink that feeds
// whatever replication controller currently runs on the node.
type replNode struct {
	addr    string
	srv     *transport.Server
	local   *space.Local
	sink    *replica.SwitchSink
	durable *space.Durable
	// tap is the node's migration tap (elastic deployments only). Both
	// nodes of a pair carry one so a reshard can re-fork against the
	// promoted node after a mid-split failover.
	tap *rebalance.Tap
	// applier is the record applier that populated this node's space while
	// it stood by (nil on a construction-time primary). Its Seq mapping is
	// how a reshard that re-arms against this node after promotion
	// translates the node's Seqs back to the dead primary's namespace.
	applier *tuplespace.Applier
}

// replShard tracks the replication state of one ring position. The two
// nodes swap roles at promotion; the ring ID (the original primary's
// address) never changes.
type replShard struct {
	idx    int
	ringID string

	mu          sync.Mutex
	primaryNode *replNode        // node currently owning the ring position
	backupNode  *replNode        // node standing by (or deposed, pre-rejoin)
	primary     *replica.Primary // controller gating primaryNode's mutations
	backup      *replica.Backup  // controller watching from backupNode
	origHandle  space.Space      // the construction-time primary handle
	handle      space.Space      // serving handle after a promotion
	epoch       uint64           // serving epoch of the ring position
	regID       uint64           // primary registration lease
	backupRegID uint64
	stops       []interface{ Stop() }
	// trace and clk are the last promotion's root span context and causal
	// stamp — what localResolver hands the master's router so its retarget
	// span parents under the promotion and its flight events order after it.
	trace obs.TraceContext
	clk   uint64
}

func (rs *replShard) setRegID(id uint64) {
	rs.mu.Lock()
	rs.regID = id
	rs.mu.Unlock()
}

// repl returns shard i's replication state (nil when replication is off).
// The repls table grows when a split builds a replicated child, so indexed
// access synchronizes on replMu.
func (f *Framework) repl(i int) *replShard {
	f.replMu.Lock()
	defer f.replMu.Unlock()
	if i < 0 || i >= len(f.repls) {
		return nil
	}
	return f.repls[i]
}

// replsSnapshot copies the current repls table for lock-free iteration.
func (f *Framework) replsSnapshot() []*replShard {
	f.replMu.Lock()
	defer f.replMu.Unlock()
	return append([]*replShard(nil), f.repls...)
}

// replLeaseTTL is the primary registration lease: renewed each heartbeat
// by a live primary, lapsing within the failover timeout otherwise.
func (f *Framework) replLeaseTTL() time.Duration { return f.cfg.FailoverTimeout }

// ringRegistered reports whether any live registration claims ring
// position ringID — the backup's registration-lease failure detector.
func (f *Framework) ringRegistered(ringID string) bool {
	items := f.Lookup.Lookup(map[string]string{"type": "javaspace", shard.AttrRing: ringID})
	return len(items) > 0
}

// setupReplica assembles shard i's replication pair around the freshly
// built primary space l: the backup node (own server, own — durable when
// DataDir is set — space), the primary controller whose middleware gates
// l's service, and the backup controller bound on the standby's server.
// It must run directly after space.NewService so the replication
// middleware sits innermost (confirm before the gate or obs layers see
// the reply). It returns the primary controller so the caller can wrap
// the master-side handle.
func (f *Framework) setupReplica(rs *replShard, l *space.Local, srv *transport.Server, psw *replica.SwitchSink, ptap *rebalance.Tap, pdur *space.Durable) *replica.Primary {
	i := rs.idx
	clus := f.Cluster

	baddr := rs.ringID + ".backup"
	bsrv := transport.NewServer()
	clus.Net.Listen(baddr, bsrv)
	bsw := replica.NewSwitchSink()
	// The backup's chain mirrors the primary's: WAL (when durable) → tap
	// (when elastic) → switch sink. Its tap exists so a reshard that loses
	// the source primary mid-split can re-fork against this node once it
	// promotes.
	var btee tuplespace.RecordSink = bsw
	var btap *rebalance.Tap
	if f.cfg.Elastic {
		btap = rebalance.NewTap(bsw)
		btee = btap
	}
	var bl *space.Local
	var bd *space.Durable
	if f.cfg.DataDir != "" {
		dopts := f.durableOptionsAt(i, baddr)
		dopts.Dir = filepath.Join(f.cfg.DataDir, fmt.Sprintf("shard%d.backup", i))
		dopts.Tee = btee
		dopts.OnWALEvent = f.walFlightSink(baddr, rs.ringID)
		var err error
		bl, bd, err = space.NewLocalDurable(f.Clock, dopts)
		if err != nil {
			panic(fmt.Sprintf("core: durable backup for shard %d: %v", i, err))
		}
	} else {
		bl = space.NewLocal(f.Clock)
		if err := bl.TS.AttachJournal(tuplespace.NewJournalSink(btee)); err != nil {
			panic(fmt.Sprintf("core: backup journal for shard %d: %v", i, err))
		}
	}
	// The standby's applier rebuilds the primary's memo table from the
	// record stream; wire its counters and flight sink so dedup hits after
	// a promotion are still visible.
	bl.TS.SetMemoCounters(f.Retries)
	bl.TS.SetFlightSink(f.memoFlightSink(baddr, rs.ringID))
	rs.primaryNode = &replNode{addr: rs.ringID, srv: srv, local: l, sink: psw, durable: pdur, tap: ptap}
	rs.backupNode = &replNode{addr: baddr, srv: bsrv, local: bl, sink: bsw, durable: bd, tap: btap}

	p := replica.NewPrimary(l, replica.PrimaryOptions{
		Clock:    f.Clock,
		Ack:      f.cfg.ReplAck,
		Renew:    func() { rs.renewRegistration(f) },
		OnFenced: f.fencedHook(rs.ringID, rs.ringID),
		OnEvent:  f.replFlightSink(rs.ringID, rs.ringID),
		Counters: f.Repl,
		ShipHist: f.cfg.Obs.Reg().Histogram(metrics.HistReplShip),
	})
	psw.Set(p.Sink())
	// The mirror dial is tagged with the shard's own address so a fault
	// plan can partition exactly the primary↔backup link.
	p.SetMirror(clus.Net.DialAs(rs.ringID, baddr))
	srv.WrapPrefix("space.", p.Middleware())

	b := replica.NewBackup(bl, replica.BackupOptions{
		Clock:           f.Clock,
		FailoverTimeout: f.cfg.FailoverTimeout,
		LeaseExpired:    func() bool { return !f.ringRegistered(rs.ringID) },
		OnPromote:       func(epoch uint64) { f.promote(rs, epoch) },
		OnEvent:         f.detectFlightSink(baddr, rs.ringID),
		Counters:        f.Repl,
	})
	b.Bind(bsrv)
	rs.backupNode.applier = b.Applier()

	rs.primary, rs.backup = p, b
	rs.epoch = 1
	rs.stops = append(rs.stops, p, b)
	rs.backupRegID = f.registerBackup(rs)
	return p
}

// registerBackup announces rs's standby under a distinct service type so
// the workers' {"type": "javaspace"} discovery never routes to it.
func (f *Framework) registerBackup(rs *replShard) uint64 {
	rs.mu.Lock()
	addr := rs.backupNode.addr
	rs.mu.Unlock()
	return f.Lookup.Register(discovery.ServiceItem{
		Name:    "javaspace-backup",
		Address: addr,
		Attributes: map[string]string{
			"type":           "javaspace-backup",
			shard.AttrShard:  strconv.Itoa(rs.idx),
			shard.AttrShards: strconv.Itoa(f.cfg.Shards),
			shard.AttrRing:   rs.ringID,
			shard.AttrRole:   shard.RoleBackup,
		},
	}, 0)
}

// renewRegistration extends the serving primary's lookup lease — called
// from the primary pump each heartbeat. A dead or fenced primary stops
// calling it, and the lapse is the backup's second failure signal.
func (rs *replShard) renewRegistration(f *Framework) {
	rs.mu.Lock()
	id := rs.regID
	rs.mu.Unlock()
	if id != 0 {
		_ = f.Lookup.Renew(id, f.replLeaseTTL())
	}
}

// promote is the backup's OnPromote glue: it turns the standby node into
// the ring position's serving node. Runs on the backup monitor goroutine
// (or a chaos script's) with the backup's apply mutex held, so no record
// application races the flip.
func (f *Framework) promote(rs *replShard, epoch uint64) {
	rs.mu.Lock()
	node := rs.backupNode
	deposed := rs.primaryNode
	rs.primaryNode, rs.backupNode = node, deposed
	backupRegID := rs.backupRegID
	rs.mu.Unlock()

	// Serve: bind the space service on the standby's server with the same
	// layering as the original primary — replication confirm innermost,
	// then the admission controller (gate included), then obs outermost.
	svc := space.NewService(node.local, node.srv)
	if f.cfg.MaxWaiters > 0 {
		node.local.TS.SetMaxWaiters(f.cfg.MaxWaiters)
	}

	// A fresh primary controller gates the promoted node from now on: it
	// renews the new registration, fences nothing (it IS the newest
	// epoch), and is ready to adopt a rejoining backup via SetMirror.
	p := replica.NewPrimary(node.local, replica.PrimaryOptions{
		Clock:    f.Clock,
		Epoch:    epoch,
		Ack:      f.cfg.ReplAck,
		Renew:    func() { rs.renewRegistration(f) },
		OnFenced: f.fencedHook(node.addr, rs.ringID),
		OnEvent:  f.replFlightSink(node.addr, rs.ringID),
		Counters: f.Repl,
		ShipHist: f.cfg.Obs.Reg().Histogram(metrics.HistReplShip),
	})
	node.sink.Set(p.Sink())
	node.srv.WrapPrefix("space.", p.Middleware())

	var handle space.Space = node.local
	var gate *transport.ServiceGate
	if f.cfg.SpaceOpCost > 0 {
		gate = transport.NewServiceGate(f.Clock, f.cfg.SpaceOpCost)
		handle = gated(node.local, gate)
	}
	// The ring position's overload protection follows the serving node:
	// the promoted service gets a freshly configured admission controller
	// and healthReport reads its vitals from now on.
	f.configureAdmission(svc, node.addr, gate)
	f.replMu.Lock()
	if rs.idx < len(f.services) {
		f.services[rs.idx] = svc
	}
	f.replMu.Unlock()
	if reg := f.cfg.Obs.Reg(); reg != nil {
		// Same serve histogram as before the failover: the ring position
		// keeps one latency record across role flips.
		node.srv.WrapPrefix("space.", obs.ServerMiddleware(f.Clock, reg.Histogram(metrics.HistShardServe(rs.idx))))
	}
	handle = p.Wrap(handle)

	// The promotion is the root of the failover span tree: its context and
	// causal stamp ride the new registration (and the local resolver), so
	// every router that retargets onto this node — in-process or across
	// the lookup service — parents its retarget span under this one and
	// orders its flight events after it.
	var pctx obs.TraceContext
	var stamp uint64
	if f.cfg.Obs != nil {
		sp := f.cfg.Obs.T().StartRoot(f.Clock, "failover", node.addr)
		pctx = sp.Context()
		sp.End()
		stamp = f.flight(node.addr, obs.FlightEvent{
			Kind: obs.EventPromote, Shard: rs.ringID, Epoch: epoch,
			Trace: pctx.TraceID, Span: pctx.SpanID,
		})
	}

	// Re-register under the ring position at the new epoch. The deposed
	// registration is left to lapse (its owner may be partitioned, not
	// dead); every resolver picks the highest epoch meanwhile.
	if backupRegID != 0 {
		_ = f.Lookup.Cancel(backupRegID)
	}
	attrs := map[string]string{
		"type":           "javaspace",
		shard.AttrShard:  strconv.Itoa(rs.idx),
		shard.AttrShards: strconv.Itoa(f.cfg.Shards),
		shard.AttrRing:   rs.ringID,
		shard.AttrRole:   shard.RolePrimary,
		shard.AttrEpoch:  strconv.FormatUint(epoch, 10),
	}
	shard.SetCtrlAttrs(attrs, pctx, stamp)
	id := f.Lookup.Register(discovery.ServiceItem{
		Name:       "javaspace",
		Address:    node.addr,
		Attributes: attrs,
	}, f.replLeaseTTL())

	rs.mu.Lock()
	rs.primary = p
	rs.handle = handle
	rs.epoch = epoch
	rs.regID = id
	rs.backupRegID = 0
	rs.stops = append(rs.stops, p)
	rs.trace, rs.clk = pctx, stamp
	rs.mu.Unlock()

	// Expired-entry bookkeeping moves with the serving space, and the
	// master's captured sweeper follows.
	f.sweepAt(rs.idx).swap(node.local.Mgr)

	// The master's router retargets immediately; remote clients resolve
	// the new registration through their Failover resolver on the next
	// hard failure.
	if f.router != nil {
		_ = f.router.RetargetTraced(shard.Shard{
			ID: rs.ringID, Space: handle, Epoch: epoch, Trace: pctx, Clk: stamp,
		})
	}
	f.spawnRepl(p.Run)
}

// spawnRepl runs a replication pump on the active Run's clock group. With
// no Run active the pump simply does not start — sync-mode replication
// still works (each mutation flushes inline); only background heartbeats
// and lease renewals need the pump, and those only matter while a job
// runs.
func (f *Framework) spawnRepl(fn func()) {
	f.replMu.Lock()
	g := f.runGroup
	f.replMu.Unlock()
	if g != nil {
		g.Go(fn)
	}
}

// startReplPumps launches the current controllers' pumps on Run's group.
func (f *Framework) startReplPumps() {
	for _, rs := range f.replsSnapshot() {
		rs.mu.Lock()
		p, b := rs.primary, rs.backup
		rs.mu.Unlock()
		if p != nil {
			f.spawnRepl(p.Run)
		}
		if b != nil {
			f.spawnRepl(b.Run)
		}
	}
}

// stopReplPumps stops every controller ever created (deposed ones
// included) so Run's group drains.
func (f *Framework) stopReplPumps() {
	for _, rs := range f.replsSnapshot() {
		rs.mu.Lock()
		stops := append([]interface{ Stop() }(nil), rs.stops...)
		rs.mu.Unlock()
		for _, s := range stops {
			s.Stop()
		}
	}
}

// localResolver is the master router's Options.Failover: ring positions
// resolve to the in-process promoted handle recorded by promote.
func (f *Framework) localResolver() func(string) (shard.Shard, error) {
	return func(ringID string) (shard.Shard, error) {
		for _, rs := range f.replsSnapshot() {
			if rs.ringID != ringID {
				continue
			}
			rs.mu.Lock()
			h, e := rs.handle, rs.epoch
			tc, clk := rs.trace, rs.clk
			rs.mu.Unlock()
			if h == nil {
				return shard.Shard{}, fmt.Errorf("core: ring %q has not failed over", ringID)
			}
			return shard.Shard{ID: ringID, Space: h, Epoch: e, Trace: tc, Clk: clk}, nil
		}
		return shard.Shard{}, fmt.Errorf("core: unknown ring %q", ringID)
	}
}

// KillShardPrimary simulates kill -9 of shard i's current primary: its
// replication pump dies mid-beat (no more heartbeats, no more lookup
// lease renewals), its space closes (blocked callers wake with ErrClosed)
// and, when durable, its WAL shuts. Nothing is restarted: the hot standby
// detects the silence, promotes itself within Config.FailoverTimeout, and
// the ring retargets — the whole point of replication is that no
// RestartShard call is needed. Requires Config.Replicas.
func (f *Framework) KillShardPrimary(i int) error {
	if len(f.replsSnapshot()) == 0 {
		return errors.New("core: KillShardPrimary requires Config.Replicas")
	}
	rs := f.repl(i)
	if rs == nil {
		return fmt.Errorf("core: no shard %d", i)
	}
	rs.mu.Lock()
	p := rs.primary
	node := rs.primaryNode
	rs.mu.Unlock()
	if p == nil || p.Killed() {
		return fmt.Errorf("core: shard %d has no live primary", i)
	}
	p.Kill()
	node.local.TS.Close()
	if node.durable != nil {
		_ = node.durable.Close()
	}
	f.flight(node.addr, obs.FlightEvent{
		Kind: obs.EventKill, Shard: rs.ringID, Epoch: p.Epoch(),
	})
	return nil
}

// RejoinShard returns shard i's deposed node to service as the hot
// standby of its promoted primary — the catch-up path: a fresh space
// under the old address is initialized by snapshot push and then follows
// the incremental stream. The old in-memory state died with the process
// (and a durable node's log is superseded by the snapshot), so the node
// rejoins empty and converges before this returns.
func (f *Framework) RejoinShard(i int) error {
	rs := f.repl(i)
	if rs == nil {
		return errors.New("core: RejoinShard requires Config.Replicas")
	}
	rs.mu.Lock()
	p, b := rs.primary, rs.backup
	node := rs.backupNode
	serving := rs.primaryNode
	rs.mu.Unlock()
	if b == nil || !b.Promoted() {
		return fmt.Errorf("core: shard %d has not failed over", i)
	}
	epoch := b.Epoch()

	fresh := space.NewLocal(f.Clock)
	sw := replica.NewSwitchSink()
	var tee tuplespace.RecordSink = sw
	var tap *rebalance.Tap
	if f.cfg.Elastic {
		// The rejoined node gets a fresh tap in its fresh chain — the old
		// tap observed the dead space's journal and must not linger.
		tap = rebalance.NewTap(sw)
		tee = tap
	}
	if err := fresh.TS.AttachJournal(tuplespace.NewJournalSink(tee)); err != nil {
		return fmt.Errorf("core: shard %d rejoin journal: %w", i, err)
	}
	fresh.TS.SetMemoCounters(f.Retries)
	fresh.TS.SetFlightSink(f.memoFlightSink(node.addr, rs.ringID))
	// The replNode fields are read under rs.mu by healthReport and
	// promote from other goroutines; swap them under the same lock.
	rs.mu.Lock()
	node.local, node.sink, node.durable = fresh, sw, nil
	node.tap = tap
	rs.mu.Unlock()

	b2 := replica.NewBackup(fresh, replica.BackupOptions{
		Clock:           f.Clock,
		Epoch:           epoch,
		FailoverTimeout: f.cfg.FailoverTimeout,
		LeaseExpired:    func() bool { return !f.ringRegistered(rs.ringID) },
		OnPromote:       func(e uint64) { f.promote(rs, e) },
		OnEvent:         f.detectFlightSink(node.addr, rs.ringID),
		Counters:        f.Repl,
	})
	b2.Bind(node.srv) // replaces the deposed node's replica handlers
	rs.mu.Lock()
	node.applier = b2.Applier()
	rs.mu.Unlock()

	id := f.registerBackup(rs)
	rs.mu.Lock()
	rs.backup = b2
	rs.stops = append(rs.stops, b2)
	rs.backupRegID = id
	rs.mu.Unlock()

	// The rejoin belongs to the failover's span tree: the deposed node
	// returning as standby is a consequence of the promotion, so its span
	// parents under the promotion's root.
	rs.mu.Lock()
	tc := rs.trace
	rs.mu.Unlock()
	if f.cfg.Obs != nil {
		sp := f.cfg.Obs.T().StartChild(f.Clock, tc, "rejoin", node.addr)
		ctx := sp.Context()
		sp.End()
		f.flight(node.addr, obs.FlightEvent{
			Kind: obs.EventRejoin, Shard: rs.ringID, Epoch: epoch,
			Trace: ctx.TraceID, Span: ctx.SpanID,
		})
	}

	// Attach the standby: the promoted primary pushes its full state and
	// the incremental stream resumes behind it.
	p.SetMirror(f.Cluster.Net.DialAs(serving.addr, node.addr))
	f.spawnRepl(b2.Run)
	return p.Flush()
}

// ReplicaState exposes shard i's current replication controllers — the
// chaos suite's observation surface. Both are nil when replication is
// off; the backup is the controller that would promote (or already has).
func (f *Framework) ReplicaState(i int) (*replica.Primary, *replica.Backup) {
	rs := f.repl(i)
	if rs == nil {
		return nil, nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary, rs.backup
}

// ShardEpoch reports the serving epoch of shard i's ring position (1
// until the first failover; 0 when replication is off).
func (f *Framework) ShardEpoch(i int) uint64 {
	rs := f.repl(i)
	if rs == nil {
		return 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.epoch
}

// DeposedHandle returns the master-side handle shard i's ring position
// had at construction. After a failover it is gated by the deposed
// primary controller: mutations through it must fail with
// replica.ErrFenced — the chaos tests' split-brain probe.
func (f *Framework) DeposedHandle(i int) space.Space {
	rs := f.repl(i)
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.origHandle
}

// healthReport backs the obs surface's /healthz endpoint: one entry per
// hosted shard with the serving node's role, the ring position's epoch,
// the primary-observed replication lag, the serving node's WAL position
// (0 for a non-durable shard), the shard's admission-control vitals
// (brownout level, inflight, rejects, sheds), and — in elastic mode —
// the shard's ring ownership fraction, live entry count, and the
// rebalancer's smoothed op rate. The Overload block aggregates the
// admission vitals cluster-wide; Status degrades to "browned-out" while
// any shard is shedding.
func (f *Framework) healthReport() obs.Health {
	h := obs.Health{Status: "ok"}
	h.Overload.MaxInflight = f.cfg.MaxInflight
	f.replMu.Lock()
	locals := append([]*space.Local(nil), f.Shards...)
	durables := append([]*space.Durable(nil), f.Durables...)
	addrs := append([]string(nil), f.shardAddrs...)
	services := append([]*space.Service(nil), f.services...)
	f.replMu.Unlock()
	var owned map[string]float64
	if f.router != nil {
		h.TopologyEpoch = f.router.TopoEpoch()
		owned = f.router.Ownership()
	}
	var splitBorn, retired map[string]bool
	var rates map[string]float64
	if f.reshard != nil {
		f.reshard.mu.Lock()
		splitBorn = make(map[string]bool, len(f.reshard.parents))
		for ring := range f.reshard.parents {
			splitBorn[ring] = true
		}
		retired = make(map[string]bool, len(f.reshard.retired))
		for ring := range f.reshard.retired {
			retired[ring] = true
		}
		rates = make(map[string]float64, len(f.reshard.rates))
		for ring, r := range f.reshard.rates {
			rates[ring] = r
		}
		f.reshard.mu.Unlock()
	}
	for i := range locals {
		sh := obs.ShardHealth{Shard: i, Role: shard.RolePrimary}
		serving := locals[i]
		if rs := f.repl(i); rs != nil {
			rs.mu.Lock()
			sh.Epoch = rs.epoch
			if rs.handle != nil {
				// A promoted standby holds the ring position.
				sh.Role = shard.RoleBackup
			}
			p := rs.primary
			var durable *space.Durable
			if rs.primaryNode != nil {
				// Capture under rs.mu: RejoinShard swaps replNode fields
				// under the same lock.
				durable = rs.primaryNode.durable
				serving = rs.primaryNode.local
			}
			rs.mu.Unlock()
			if p != nil {
				sh.ReplicationLag = p.Lag()
			}
			if durable != nil {
				sh.WALPosition = durable.Log().Position()
			}
		} else if i < len(durables) && durables[i] != nil {
			sh.WALPosition = durables[i].Log().Position()
		}
		if i < len(addrs) {
			ring := addrs[i]
			sh.RingID = ring
			sh.OwnedFraction = owned[ring]
			sh.OpRate = rates[ring]
			sh.SplitBorn = splitBorn[ring]
			sh.Retired = retired[ring]
		}
		if serving != nil && !sh.Retired {
			sh.Entries = serving.TS.Stats().EntriesLive
			sh.MemoEntries, sh.DedupHits, _ = serving.TS.MemoStats()
		}
		if i < len(services) && services[i] != nil {
			v := services[i].Admission().Vitals()
			sh.BrownoutLevel = v.BrownoutLevel
			sh.Inflight = v.Inflight
			sh.AdmitRejected = v.Rejected
			sh.Shed = v.Shed
			if v.BrownoutLevel > h.Overload.BrownoutLevel {
				h.Overload.BrownoutLevel = v.BrownoutLevel
			}
			h.Overload.Inflight += v.Inflight
			h.Overload.Rejected += v.Rejected
			h.Overload.Shed += v.Shed
			h.Overload.DeadlineExpired += v.DeadlineExpired
		}
		h.Shards = append(h.Shards, sh)
	}
	if h.Overload.BrownoutLevel > 0 {
		h.Status = "browned-out"
	}
	return h
}

// replGauges registers the per-shard replication gauges.
func (f *Framework) replGauges(reg *metrics.Registry) {
	for i, rs := range f.repls {
		rs := rs
		reg.RegisterGauge(metrics.GaugeReplRole(i), func() int64 {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			if rs.handle != nil {
				return 2 // failed over: the standby serves
			}
			return 1
		})
		reg.RegisterGauge(metrics.GaugeReplEpoch(i), func() int64 {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			return int64(rs.epoch)
		})
		reg.RegisterGauge(metrics.GaugeReplLag(i), func() int64 {
			rs.mu.Lock()
			p := rs.primary
			rs.mu.Unlock()
			if p == nil {
				return 0
			}
			return int64(p.Lag())
		})
	}
}
