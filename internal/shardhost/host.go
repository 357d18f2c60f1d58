// Package shardhost owns a hosted shard set for its whole life: it builds
// every node (seed, standby, restarted, rejoined and split-born alike) with
// one function, joins the lookup service and keeps the leases, promotes,
// fences and re-admits replicas, splits and merges ring positions, routes
// the master's own operations, and reports all of it on /healthz and as
// per-shard gauges on /metrics. The simulator (internal/core) and the TCP
// master (cmd/master) are both configuration over it: a Spec saying what
// to host and an Env saying where.
//
// What is about the job rather than the shards stays with the caller — the
// code server, the SNMP agent, the master's task gauges, the workers — and
// binds on Server(0).
package shardhost

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"

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

// Host is an assembled shard set.
type Host struct {
	// Counters is every count the host and its master-side router keep —
	// wal:*, journal:errors, repl:*, reshard:*, retry:*, dedup:*,
	// breaker:*, admit:* and shed:* — under those key prefixes: Spec.Obs's
	// counter set when set, so /metrics shows them, else a fresh one.
	Counters *metrics.Counters

	clock   vclock.Clock
	env     Env
	spec    Spec
	router  *shard.Router
	space   space.Space
	reshard *reshardState // elastic only
	rebal   *rebalancer   // auto-shard only, between Start and Stop

	// mu guards positions: the table grows when a split builds a child.
	mu        sync.Mutex
	positions []*position

	errMu   sync.Mutex
	lastErr error
}

// node is one physical node: a listener, the space behind it, and that
// space's journal chain.
type node struct {
	addr    string
	srv     *transport.Server
	release func()
	dir     string // WAL directory; "" for a memory-only node
	local   *space.Local
	durable *space.Durable
	// sink feeds whichever replication controller currently runs on the
	// node (nil when unreplicated); tap is the migration tap (elastic only).
	// Both nodes of a pair carry a tap so a reshard can re-fork against the
	// promoted node after a mid-split failover.
	sink *replica.SwitchSink
	tap  *rebalance.Tap
}

// position is one ring position. The ring ID — the seed node's address —
// never changes; the two nodes of a replicated position swap roles at
// promotion.
type position struct {
	idx  int
	ring string
	srv  *transport.Server // the seed node's listener

	mu      sync.Mutex
	serving *node
	standby *node                  // hot standby, or the deposed node until it rejoins
	svc     *space.Service         // serving node's service (admission owner)
	gate    *transport.ServiceGate // serving node's modeled CPU
	primary *replica.Primary
	backup  *replica.Backup
	// origHandle is the construction-time master-side handle; handle is
	// the current one. They differ once promoted.
	origHandle, handle space.Space
	promoted, retired  bool
	epoch              uint64             // 0 unreplicated, 1 until the first failover
	listing            *discovery.Listing // the serving node's registration
	stops              []interface{ Stop() }
	// trace and clk are the last promotion's root span context and causal
	// stamp — what the in-process resolver hands the master's router so its
	// retarget span parents under the promotion.
	trace obs.TraceContext
	clk   uint64
}

// New validates spec, hosts its seed shards on env and joins the lookup
// service. Nothing runs in the background until Start.
func New(clock vclock.Clock, env Env, spec Spec) (*Host, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	h := &Host{clock: clock, env: env, spec: spec}
	if err := h.assemble(); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// assemble builds everything New promises; on error New closes whatever
// it had already built.
func (h *Host) assemble() error {
	clock, spec := h.clock, h.spec
	if h.Counters = spec.Obs.Ctr(); h.Counters == nil {
		h.Counters = metrics.NewCounters()
	}

	seeds := make([]shard.Shard, spec.Shards)
	for i := range seeds {
		ps, err := h.buildPosition()
		if err == nil {
			err = h.announce(ps, false)
		}
		if err != nil {
			return err
		}
		seeds[i] = shard.Shard{ID: ps.ring, Space: ps.handle, Epoch: ps.epoch}
	}

	// A router even for one plain shard: it mints the master's tokens, and
	// Restart re-admits a recovered space through Router.Replace, a promotion
	// retargets the ring position through Router.Retarget, a split changes
	// the membership — and the caller's captured handle observes all three.
	opts := shard.Options{Clock: clock, Seed: "master", Obs: spec.Obs, Counters: h.Counters}
	if spec.Replicas > 0 {
		opts.Failover = h.resolve
	}
	router, err := shard.New(opts, seeds)
	if err != nil {
		return err
	}
	h.router, h.space = router, router
	if spec.Elastic {
		if err := h.initElastic(); err != nil {
			return err
		}
	}
	// Per-op latencies of the master's own handle. The wrapper delegates to
	// the router underneath, so in-place Replace/Retarget stay visible.
	h.space = obs.InstrumentSpace(h.space, clock, spec.Obs.Reg(), metrics.HistSpacePrefix)
	h.installObs()
	return nil
}

// Spec is the host's spec with every default filled in — what a caller that
// builds the rest of the deployment from the same values reads them from.
func (h *Host) Spec() Spec { return h.spec }

// Space is the master's operating handle over the hosted shards: the
// router, instrumented.
func (h *Host) Space() space.Space { return h.space }

// Router is the master-side router.
func (h *Host) Router() *shard.Router { return h.router }

// Server is ring position i's seed listener — where a caller binds the
// services that share the master's address (Server(0): code server, SNMP).
func (h *Host) Server(i int) *transport.Server {
	if ps := h.position(i); ps != nil {
		return ps.srv
	}
	return nil
}

// Err returns the most recent background error, if any: a settle timeout,
// a drain re-arm, a failed auto-shard action, a registration the lookup
// service refused after a promotion.
func (h *Host) Err() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.lastErr
}

func (h *Host) setErr(err error) {
	if err == nil {
		return
	}
	h.errMu.Lock()
	h.lastErr = err
	h.errMu.Unlock()
}

// position returns ring position i (nil when out of range).
func (h *Host) position(i int) *position {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.positions) {
		return nil
	}
	return h.positions[i]
}

// byRing returns the position at ring ID ring (nil when unknown).
func (h *Host) byRing(ring string) *position {
	for _, ps := range h.snapshot() {
		if ps.ring == ring {
			return ps
		}
	}
	return nil
}

func (h *Host) snapshot() []*position {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*position(nil), h.positions...)
}

// servingNodes returns each ring position's serving node, by index.
func (h *Host) servingNodes() []*node {
	ps := h.snapshot()
	out := make([]*node, len(ps))
	for i, p := range ps {
		p.mu.Lock()
		out[i] = p.serving
		p.mu.Unlock()
	}
	return out
}

// Shards returns each ring position's serving space, by index.
func (h *Host) Shards() []*space.Local {
	nodes := h.servingNodes()
	out := make([]*space.Local, len(nodes))
	for i, n := range nodes {
		out[i] = n.local
	}
	return out
}

// Durables returns each serving node's persistence controller (nil
// entries for memory-only nodes).
func (h *Host) Durables() []*space.Durable {
	nodes := h.servingNodes()
	out := make([]*space.Durable, len(nodes))
	for i, n := range nodes {
		out[i] = n.durable
	}
	return out
}

// RingID resolves shard index i to its ring position.
func (h *Host) RingID(i int) (string, bool) {
	ps := h.position(i)
	if ps == nil {
		return "", false
	}
	return ps.ring, true
}

// --- node build ---

// walDir is the WAL directory of ring position idx's seed node or standby
// ("" when the host is not durable).
func (h *Host) walDir(idx int, standby bool) string {
	if h.spec.DataDir == "" {
		return ""
	}
	name := fmt.Sprintf("shard%d", idx)
	if standby {
		name += ".backup"
	}
	return filepath.Join(h.spec.DataDir, name)
}

// buildNode assembles one node of ring position ring — every node the
// host ever runs comes from here. It listens first (unless reuse hands it
// a crashed or deposed node's listener), so the address exists before
// anything is labelled with it; then opens the space, recovering dir's WAL
// when dir is set; and hangs the journal chain on it, innermost first:
// space journal → WAL (when durable) → migration tap (when elastic) →
// replication switch sink (when replicated). The tap stays a pass-through
// until a reshard turns it on; the switch sink stays dark until a primary
// controller is set on it. An empty ring means the node founds one: its
// own address.
func (h *Host) buildNode(at Node, reuse *node, ring, dir string) (*node, error) {
	n := &node{dir: dir}
	if reuse != nil {
		n.addr, n.srv, n.release = reuse.addr, reuse.srv, reuse.release
	} else {
		n.srv = transport.NewServer()
		var err error
		if n.addr, n.release, err = h.env.Listen(at, n.srv); err != nil {
			return nil, fmt.Errorf("shardhost: listen for shard %d: %w", at.Shard, err)
		}
	}
	if ring == "" {
		ring = n.addr
	}
	var sink tuplespace.RecordSink
	if h.spec.Replicas > 0 {
		n.sink = replica.NewSwitchSink()
		sink = n.sink
	}
	if h.spec.Elastic {
		n.tap = rebalance.NewTap(sink)
		sink = n.tap
	}
	if dir != "" {
		reg := h.spec.Obs.Reg()
		opts := space.DurableOptions{
			Dir:      dir,
			Fsync:    h.spec.FsyncPolicy,
			Counters: h.Counters,
			// All nodes share the append/fsync histograms: "how slow is my
			// disk?" is per deployment; the serve histograms split load.
			AppendHist: reg.Histogram(metrics.HistWALAppend),
			SyncHist:   reg.Histogram(metrics.HistWALFsync),
			Tee:        sink,
			OnWALEvent: h.walFlightSink(n.addr, ring),
		}
		if h.env.WrapWriter != nil {
			opts.WrapWriter = h.env.WrapWriter(n.addr)
		}
		var err error
		if n.local, n.durable, err = space.NewLocalDurable(h.clock, opts); err != nil {
			if reuse == nil {
				n.release()
			}
			return nil, fmt.Errorf("shardhost: durable node %s: %w", n.addr, err)
		}
	} else {
		n.local = space.NewLocal(h.clock)
		if sink != nil {
			if err := n.local.TS.AttachJournal(tuplespace.NewJournalSink(sink)); err != nil {
				return nil, fmt.Errorf("shardhost: journal for node %s: %w", n.addr, err)
			}
		}
	}
	// A standby's applier (and a restart's WAL replay) rebuilds the memo
	// table; its counters and flight sink are wired on every node so dedup
	// hits stay visible whoever serves.
	n.local.TS.SetMemoCounters(h.Counters)
	n.local.TS.SetFlightSink(h.memoFlightSink(n.addr, ring))
	return n, nil
}

// serve makes n the serving node of ps at epoch, with the one layering
// every serving node gets, innermost first: space service handlers, each
// registered behind the admission controller (service gate included);
// then the replication envelope (a fresh primary controller feeding n's
// switch sink), so a fenced, killed or degraded primary refuses a
// mutation before admission sees it, and an op's inflight slot is freed
// before its standby confirm; then the serve histogram outermost, so it
// sees gate queueing, service time and the confirm.
// It returns the master-side handle — gated (space.Gated) and
// replication-wrapped like a remote call, so the master competes for the
// same modeled CPU and is fenced with everyone else. The caller publishes
// svc, gate and controller on ps under ps.mu.
func (h *Host) serve(ps *position, n *node, epoch uint64, gate *transport.ServiceGate) (space.Space, *space.Service, *transport.ServiceGate, *replica.Primary) {
	svc := space.NewService(n.local, n.srv)
	var p *replica.Primary
	if n.sink != nil {
		p = replica.NewPrimary(n.local, replica.PrimaryOptions{
			Clock:    h.clock,
			Epoch:    epoch,
			Ack:      h.spec.ReplAck,
			Renew:    func() { h.renew(ps) },
			OnFenced: h.fencedHook(n.addr, ps.ring),
			OnEvent:  h.replFlightSink(n.addr, ps.ring),
			Counters: h.Counters,
			ShipHist: h.spec.Obs.Reg().Histogram(metrics.HistReplShip),
		})
		n.sink.Set(p.Sink())
		n.srv.WrapPrefix("space.", p.Middleware())
	}
	var handle space.Space = n.local
	if h.env.spaceOp > 0 {
		if gate == nil {
			gate = transport.NewServiceGate(h.clock, h.env.spaceOp)
		}
		handle = space.Gated(n.local, gate)
	}
	// The propagated-deadline check, the inflight bound and the brownout
	// controller always, the deadline-aware gate when modeled.
	svc.Admission().Configure(space.AdmissionConfig{
		Clock:       h.clock,
		MaxInflight: h.spec.MaxInflight,
		Gate:        gate,
		Counters:    h.Counters,
		FlightSink: func(detail string) {
			h.Flight(n.addr, obs.FlightEvent{Kind: obs.EventBrownout, Shard: n.addr, Detail: detail})
		},
	})
	if reg := h.spec.Obs.Reg(); reg != nil {
		// One histogram per ring position, across role flips and restarts.
		n.srv.WrapPrefix("space.", obs.ServerMiddleware(h.clock, reg.Histogram(metrics.HistShardServe(ps.idx))))
	}
	if p != nil {
		handle = p.Wrap(handle)
	}
	return handle, svc, gate, p
}

// buildPosition assembles the next ring position — seed node serving,
// standby attached when replicated — and adds it to the host's tables, so
// failover, restarts and health all see it. It is not announced: a
// seed is announced by New, a split-born child only at its cutover. Builds
// never overlap (New is sequential, reshards are one at a time), so the
// table's length is the next index.
func (h *Host) buildPosition() (*position, error) {
	h.mu.Lock()
	idx := len(h.positions)
	h.mu.Unlock()
	n, err := h.buildNode(Node{Shard: idx}, nil, "", h.walDir(idx, false))
	if err != nil {
		return nil, err
	}
	ps := &position{idx: idx, ring: n.addr, srv: n.srv, serving: n}
	if h.spec.Replicas > 0 {
		ps.epoch = 1
	}
	ps.handle, ps.svc, ps.gate, ps.primary = h.serve(ps, n, ps.epoch, nil)
	ps.origHandle = ps.handle
	h.mu.Lock()
	h.positions = append(h.positions, ps)
	h.mu.Unlock()
	h.positionGauges(ps)
	if ps.primary == nil {
		return ps, nil
	}
	ps.stops = append(ps.stops, ps.primary)
	sb, err := h.buildNode(Node{Shard: idx, StandbyOf: ps.ring}, nil, ps.ring, h.walDir(idx, true))
	if err == nil {
		_, err = h.standBy(ps, sb, ps.primary)
	}
	if err != nil {
		// The index stays taken — and with it the WAL directory — so a
		// later build never recovers this attempt's log residue.
		h.retire(ps)
		return nil, err
	}
	return ps, nil
}

// --- lookup registration ---

// announce lists ps's serving node under its ring position, leased by the
// Env and renewed until retire withdraws it. Durable nodes carry recovery
// metadata, so clients and operators can see a service came back from its
// log and how much it restored. A replicated position's registration is a
// FailoverTimeout lease its primary pump renews each heartbeat — the lapse
// is the standby's second failure signal — and a promotion's carries the
// promotion's span context and causal stamp to every router that resolves
// it.
func (h *Host) announce(ps *position, restarted bool) error {
	ps.mu.Lock()
	n, epoch, tc, clk := ps.serving, ps.epoch, ps.trace, ps.clk
	ps.mu.Unlock()
	attrs := h.ringAttrs(ps)
	if n.durable != nil {
		info := n.durable.Info()
		attrs["durable"] = "1"
		attrs["recovered-entries"] = strconv.Itoa(info.Restored)
		if restarted || info.Segments > 0 || info.SnapshotRecords > 0 {
			attrs["recovered"] = "1"
		}
	}
	ttl := h.env.Lease
	if epoch > 0 {
		attrs[shard.AttrEpoch] = strconv.FormatUint(epoch, 10)
		shard.SetCtrlAttrs(attrs, tc, clk)
		ttl = h.spec.FailoverTimeout
	}
	l, err := discovery.List(h.env.Registrar, discovery.ServiceItem{Name: "javaspace", Address: n.addr, Attributes: attrs}, ttl)
	if err != nil {
		return fmt.Errorf("shardhost: register shard %d with lookup: %w", ps.idx, err)
	}
	if epoch == 0 {
		l.Keep(h.clock, h.env.Spawn)
	}
	ps.mu.Lock()
	ps.listing = l
	ps.mu.Unlock()
	return nil
}

// ringAttrs are the attributes every registration of ps carries.
func (h *Host) ringAttrs(ps *position) map[string]string {
	attrs := map[string]string{
		"type":           shard.SpaceType,
		shard.AttrShard:  strconv.Itoa(ps.idx),
		shard.AttrShards: strconv.Itoa(h.spec.Shards),
	}
	for k, v := range h.spec.Attrs {
		attrs[k] = v
	}
	if h.spec.Replicas > 0 {
		attrs[shard.AttrRing] = ps.ring
	}
	if h.spec.Elastic {
		// What tells a joining client to route through a ring and watch the
		// topology even while there is one unreplicated shard (shard.Join).
		attrs[shard.AttrElastic] = "1"
	}
	return attrs
}

// renew extends the serving primary's lookup lease — called from its pump
// each heartbeat. A dead or fenced primary stops calling.
func (h *Host) renew(ps *position) {
	ps.mu.Lock()
	l := ps.listing
	ps.mu.Unlock()
	if l != nil {
		_ = l.Renew() // a lapse is the failure signal itself
	}
}

// --- lifecycle ---

// Start launches the background processes of everything hosted so far:
// replication pumps and, with AutoShard, the rebalancer. Nodes born later
// (promotions, rejoins, split children) spawn theirs as they appear.
func (h *Host) Start() {
	for _, ps := range h.snapshot() {
		ps.mu.Lock()
		p, b := ps.primary, ps.backup
		ps.mu.Unlock()
		if p != nil {
			h.env.Spawn(p.Run)
		}
		if b != nil {
			h.env.Spawn(b.Run)
		}
	}
	if h.spec.AutoShard {
		h.rebal = h.newRebalancer()
		h.env.Spawn(h.rebal.Run)
	}
}

// Stop ends every background process — every controller ever created,
// deposed ones included — so the caller's process group drains. The
// shards keep serving.
func (h *Host) Stop() {
	if h.rebal != nil {
		h.rebal.Stop()
	}
	for _, ps := range h.snapshot() {
		ps.mu.Lock()
		stops := append([]interface{ Stop() }(nil), ps.stops...)
		ps.mu.Unlock()
		for _, s := range stops {
			s.Stop()
		}
	}
}

// Close stops the host and shuts every node down: every item it lists
// withdrawn from the lookup service, listeners released, spaces closed,
// final WAL appends on disk.
func (h *Host) Close() {
	h.Stop()
	if h.reshard != nil {
		h.reshard.withdraw()
	}
	for _, ps := range h.snapshot() {
		h.retire(ps)
	}
}

// retire takes ps out of service for good.
func (h *Host) retire(ps *position) {
	ps.mu.Lock()
	if ps.retired {
		ps.mu.Unlock()
		return
	}
	ps.retired = true
	stops := append([]interface{ Stop() }(nil), ps.stops...)
	nodes := []*node{ps.serving, ps.standby}
	l := ps.listing
	ps.listing = nil
	ps.mu.Unlock()
	for _, s := range stops {
		s.Stop()
	}
	l.Withdraw()
	for _, n := range nodes {
		if n == nil {
			continue
		}
		// Space first: closing it wakes the handlers parked in blocking
		// takes, which a TCP listener's release waits for.
		n.local.TS.Close()
		if n.durable != nil {
			_ = n.durable.Close() // teardown: the next open truncates a torn tail
		}
		n.release()
	}
}

// Restart crash-restarts ring position i's serving node: the live space is
// dropped (in-memory state discarded, blocked callers woken with ErrClosed)
// and a replacement is recovered from the node's WAL + snapshot, served on
// the same listener and re-admitted to the routing ring — kill -9 on a
// persistent Outrigger followed by a restart from its data directory. The
// crash drops any in-flight migration with the old journal chain, which is
// the abort-and-retry path resharding already handles; a hot standby is
// re-attached and converges by snapshot push before Restart returns.
func (h *Host) Restart(i int) (space.RecoveryInfo, error) {
	var none space.RecoveryInfo
	if h.spec.DataDir == "" {
		return none, errors.New("shardhost: Restart requires a data directory")
	}
	ps := h.position(i)
	if ps == nil {
		return none, fmt.Errorf("shardhost: no shard %d", i)
	}
	ps.mu.Lock()
	old, p, gate, epoch := ps.serving, ps.primary, ps.gate, ps.epoch
	sb, b := ps.standby, ps.backup
	oldListing := ps.listing
	ps.mu.Unlock()
	if old.dir == "" {
		return none, fmt.Errorf("shardhost: shard %d is served by a memory-only node (it rejoined from a snapshot)", i)
	}

	// Crash: entries live only in the WAL now.
	if p != nil {
		p.Kill()
	}
	old.local.TS.Close()
	if err := old.durable.Close(); err != nil {
		return none, fmt.Errorf("shardhost: shard %d shutdown: %w", i, err)
	}

	// Restart: same listener, same address, same modeled CPU, a fresh
	// admission controller (the old inflight accounting died with the ops).
	n, err := h.buildNode(Node{}, old, ps.ring, old.dir)
	if err != nil {
		return none, fmt.Errorf("shardhost: shard %d recovery: %w", i, err)
	}
	handle, svc, gate, p2 := h.serve(ps, n, epoch, gate)
	ps.mu.Lock()
	ps.serving, ps.svc, ps.gate, ps.primary, ps.handle = n, svc, gate, p2, handle
	if p2 != nil {
		ps.stops = append(ps.stops, p2)
	}
	ps.mu.Unlock()
	if err := h.router.Replace(ps.ring, handle); err != nil {
		return none, fmt.Errorf("shardhost: shard %d re-admission: %w", i, err)
	}
	// New registration before the old one goes, so a lookup always finds
	// the ring position.
	if err := h.announce(ps, true); err != nil {
		return none, err
	}
	oldListing.Withdraw()
	h.Flight(n.addr, obs.FlightEvent{
		Kind: obs.EventShardRestart, Shard: ps.ring,
		Detail: fmt.Sprintf("%d entries restored", n.durable.Info().Restored),
	})
	if p2 != nil {
		h.env.Spawn(p2.Run)
		if !b.Promoted() {
			if err := h.attach(ps, p2, n, sb); err != nil {
				return none, err
			}
			if err := p2.Flush(); err != nil {
				return none, fmt.Errorf("shardhost: shard %d standby re-sync: %w", i, err)
			}
		}
	}
	return n.durable.Info(), nil
}
