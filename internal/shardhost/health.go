package shardhost

import (
	"fmt"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
)

// The host owns health: it is the only thing that knows which node serves
// each ring position right now, so /healthz and the per-shard gauges on
// /metrics are both computed here, once, for every environment — and both
// follow promotions, restarts, splits and merges.

// Health is the /healthz provider: one entry per hosted ring position
// with the serving node's role, the position's epoch, the primary-observed
// replication lag, the serving node's WAL position (0 when memory-only),
// memo-table vitals, admission-control vitals, ring ownership and — on an
// auto-sharded host — the rebalancer's smoothed op rate. The Overload block
// aggregates the serving nodes' admission vitals; Status degrades to
// "browned-out" while any of them sheds.
func (h *Host) Health() obs.Health {
	hl := obs.Health{Status: "ok", TopologyEpoch: h.router.TopoEpoch()}
	owned := h.router.Ownership()
	var rates map[string]float64
	splitBorn := map[string]bool{}
	if h.reshard != nil {
		h.reshard.mu.Lock()
		for ring := range h.reshard.parents {
			splitBorn[ring] = true
		}
		rates = h.reshard.rates
		h.reshard.mu.Unlock()
	}
	for _, ps := range h.snapshot() {
		ps.mu.Lock()
		sh := obs.ShardHealth{
			Shard: ps.idx, Role: obs.RolePrimary, Epoch: ps.epoch,
			RingID: ps.ring, Retired: ps.retired,
		}
		if ps.promoted {
			// A promoted standby holds the ring position.
			sh.Role = obs.RoleBackup
		}
		n, p, svc := ps.serving, ps.primary, ps.svc
		ps.mu.Unlock()
		sh.OwnedFraction = owned[ps.ring]
		sh.OpRate = rates[ps.ring]
		sh.SplitBorn = splitBorn[ps.ring]
		if p != nil {
			sh.ReplicationLag = p.Lag()
		}
		if n.durable != nil {
			sh.WALPosition = n.durable.Log().Position()
		}
		if !sh.Retired {
			st := n.local.TS.Stats()
			sh.Entries, sh.TxnsLive, sh.TxnsExpired = st.EntriesLive, st.TxnsLive, st.TxnExpired
			sh.MemoEntries, sh.DedupHits, _ = n.local.TS.MemoStats()
		}
		v := svc.Admission().Vitals()
		hl.Overload.MaxInflight = v.MaxInflight
		sh.BrownoutLevel = v.BrownoutLevel
		sh.Inflight = v.Inflight
		sh.AdmitRejected = v.Rejected
		sh.Shed = v.Shed
		if v.BrownoutLevel > hl.Overload.BrownoutLevel {
			hl.Overload.BrownoutLevel = v.BrownoutLevel
		}
		hl.Overload.Inflight += v.Inflight
		hl.Overload.Rejected += v.Rejected
		hl.Overload.Shed += v.Shed
		hl.Overload.DeadlineExpired += v.DeadlineExpired
		hl.Shards = append(hl.Shards, sh)
	}
	if hl.Overload.BrownoutLevel > 0 {
		hl.Status = "browned-out"
	}
	return hl
}

// installObs hooks the host into Spec.Obs: the /healthz provider and the
// topology-epoch gauge.
func (h *Host) installObs() {
	o := h.spec.Obs
	if o == nil {
		return
	}
	o.SetHealth(h.Health)
	o.Reg().RegisterGauge(metrics.GaugeTopologyEpoch, func() int64 { return int64(h.router.TopoEpoch()) })
}

// positionGauges registers ps's per-shard gauges: served ops; the serving
// node's live and dead entries, memo-table size and dedup hits; its WAL
// position when durable; and, when replicated, role (1 = the seed serves,
// 2 = failed over), epoch and lag.
func (h *Host) positionGauges(ps *position) {
	reg := h.spec.Obs.Reg()
	if reg == nil {
		return
	}
	serve := reg.Histogram(metrics.HistShardServe(ps.idx))
	reg.RegisterGauge(metrics.GaugeShardOps(ps.idx), func() int64 { return int64(serve.Count()) })
	// Read off whichever node serves ps at scrape time; a retired position
	// reads 0, as on /healthz.
	serving := func(read func(n *node) int64) func() int64 {
		return func() int64 {
			ps.mu.Lock()
			n, retired := ps.serving, ps.retired
			ps.mu.Unlock()
			if retired {
				return 0
			}
			return read(n)
		}
	}
	reg.RegisterGauge(metrics.GaugeShardEntries(ps.idx), serving(func(n *node) int64 {
		return int64(n.local.TS.Stats().EntriesLive)
	}))
	reg.RegisterGauge(metrics.GaugeShardDeadEntries(ps.idx), serving(func(n *node) int64 {
		return int64(n.local.TS.Stats().Dead)
	}))
	reg.RegisterGauge(metrics.GaugeShardMemoEntries(ps.idx), serving(func(n *node) int64 {
		size, _, _ := n.local.TS.MemoStats()
		return int64(size)
	}))
	reg.RegisterGauge(metrics.GaugeShardDedupHits(ps.idx), serving(func(n *node) int64 {
		_, hits, _ := n.local.TS.MemoStats()
		return int64(hits)
	}))
	if h.spec.DataDir != "" {
		reg.RegisterGauge(metrics.GaugeShardWALPosition(ps.idx), serving(func(n *node) int64 {
			if n.durable == nil {
				return 0 // rejoined from a snapshot: memory-only
			}
			return int64(n.durable.Log().Position())
		}))
	}
	if h.spec.Replicas == 0 {
		return
	}
	reg.RegisterGauge(metrics.GaugeReplRole(ps.idx), func() int64 {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		if ps.promoted {
			return 2
		}
		return 1
	})
	reg.RegisterGauge(metrics.GaugeReplEpoch(ps.idx), func() int64 {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return int64(ps.epoch)
	})
	reg.RegisterGauge(metrics.GaugeReplLag(ps.idx), func() int64 {
		ps.mu.Lock()
		p := ps.primary
		ps.mu.Unlock()
		return int64(p.Lag())
	})
}

// --- flight recorder ---

// Flight records one control-plane event attributed to node in Spec.Obs's
// flight recorder, returning the causal stamp (0 without Obs). Every hosted
// node's events are attributed to its address; the host's own to "master".
func (h *Host) Flight(node string, ev obs.FlightEvent) uint64 {
	if h.spec.Obs == nil {
		return 0
	}
	ev.Node = node
	return h.spec.Obs.Fl().Record(h.clock, ev)
}

// flightSink builds a (kind, detail) callback for the node at addr under
// ring position ring that records pick(kind). Nil without Obs, which keeps
// the producer's hot path unhooked.
func (h *Host) flightSink(addr, ring string, pick func(kind string) string) func(kind, detail string) {
	if h.spec.Obs == nil {
		return nil
	}
	return func(kind, detail string) {
		h.Flight(addr, obs.FlightEvent{Kind: pick(kind), Shard: ring, Detail: detail})
	}
}

// memoFlightSink records a space's dedup hits.
func (h *Host) memoFlightSink(addr, ring string) func(kind, detail string) {
	return h.flightSink(addr, ring, func(string) string { return obs.EventDedupHit })
}

// walFlightSink records a WAL's lifecycle ("rotate"/"snapshot").
func (h *Host) walFlightSink(addr, ring string) func(kind, detail string) {
	return h.flightSink(addr, ring, func(kind string) string {
		if kind == "snapshot" {
			return obs.EventWALSnapshot
		}
		return obs.EventWALRotate
	})
}

// replFlightSink records a primary controller's transitions
// ("resync"/"degraded").
func (h *Host) replFlightSink(addr, ring string) func(kind, detail string) {
	return h.flightSink(addr, ring, func(kind string) string {
		if kind == "degraded" {
			return obs.EventDegraded
		}
		return obs.EventResync
	})
}

// detectFlightSink records a backup monitor's decision to promote.
func (h *Host) detectFlightSink(addr, ring string) func(kind, detail string) {
	return h.flightSink(addr, ring, func(string) string { return obs.EventDetect })
}

// fencedHook builds a primary controller's OnFenced hook: the deposed node
// at addr records that it learned of a higher epoch.
func (h *Host) fencedHook(addr, ring string) func(epoch uint64) {
	if h.spec.Obs == nil {
		return nil
	}
	return func(epoch uint64) {
		h.Flight(addr, obs.FlightEvent{Kind: obs.EventFenced, Shard: ring, Epoch: epoch})
	}
}

// reshardTrace opens the root span of one reshard operation and returns
// its context plus the sink mapping the migration's phase boundaries
// ("fork"/"settle"/"drain") onto flight events tagged with the operation,
// the ring position being resharded and that context.
func (h *Host) reshardTrace(op, ring string) (obs.TraceContext, func(kind, detail string)) {
	if h.spec.Obs == nil {
		return obs.TraceContext{}, nil
	}
	sp := h.spec.Obs.T().StartRoot(h.clock, "reshard:"+op, "master")
	tc := sp.Context()
	sp.End()
	return tc, func(kind, detail string) {
		h.Flight("master", obs.FlightEvent{
			Kind: obs.EventSplitPhase, Shard: ring,
			Detail: fmt.Sprintf("%s %s: %s", op, kind, detail),
			Trace:  tc.TraceID, Span: tc.SpanID,
		})
	}
}
