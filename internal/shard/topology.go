package shard

import (
	"encoding/json"
	"fmt"
	"sort"

	"gospaces/internal/discovery"
	"gospaces/internal/obs"
	"gospaces/internal/space"
)

// Topology is the authoritative description of the ring: which members
// exist and which hash points (labels) each owns. Reshards publish a new
// Topology with a strictly higher Epoch; routers apply the newest one they
// see and reject everything older, so concurrent split, merge, and
// failover convergence all reduce to "highest epoch wins" — the same
// fencing discipline the per-shard replication epochs already use.
//
// A topology is only needed once the ring has resharded: before the first
// split every participant derives identical default placements from the
// member list alone (see DefaultLabels), which is why the pre-elastic
// discovery path carries no topology at all.
type Topology struct {
	Epoch   uint64       `json:"epoch"`
	Members []TopoMember `json:"members"`
	// Clk is the publisher's causal-clock stamp at publication. A router
	// adopting the topology observes it (obs.FlightRecorder.Observe), so
	// every adopter's subsequent flight events order after the publish —
	// which is what lets per-node dumps merge into one consistent
	// cluster timeline across the reshard. Zero when the publisher runs
	// without observability.
	Clk uint64 `json:"clk,omitempty"`
}

// TopoMember is one ring member in a Topology.
type TopoMember struct {
	// ID is the member's ring position (its original primary's registered
	// address).
	ID string `json:"id"`
	// Labels are the hash-point labels the member owns. A split moves a
	// subset of the parent's labels to the child; a merge returns them.
	Labels []string `json:"labels"`
	// Epoch is the member's replication epoch floor: routers must talk to
	// a registration at this epoch or newer (a split-born child starts at
	// 1; failover keeps raising it independently of the topology).
	Epoch uint64 `json:"epoch"`
}

// Discovery surface for topologies. The master registers one service item
// of TopoType per ring; AttrTopo carries the JSON-encoded Topology and
// AttrTopoEpoch duplicates its epoch as a plain attribute so watchers can
// cheaply skip stale records.
const (
	TopoType      = "javaspace-topology"
	AttrTopo      = "topology"  // JSON-encoded Topology
	AttrTopoEpoch = "topoepoch" // Topology.Epoch, "1", "2", ...
)

// EncodeTopology serializes t for the AttrTopo discovery attribute.
func EncodeTopology(t Topology) (string, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("shard: encode topology: %w", err)
	}
	return string(b), nil
}

// DecodeTopology parses the AttrTopo attribute of a topology record.
func DecodeTopology(attr string) (Topology, error) {
	var t Topology
	if err := json.Unmarshal([]byte(attr), &t); err != nil {
		return Topology{}, fmt.Errorf("shard: decode topology: %w", err)
	}
	return t, nil
}

// BestTopology picks the newest topology record among items (matched by
// TopoType in the item's type attribute), returning ok=false when none
// carry one.
func BestTopology(items []discovery.ServiceItem) (Topology, bool) {
	var best Topology
	found := false
	for _, item := range items {
		attr := item.Attributes[AttrTopo]
		if attr == "" {
			continue
		}
		t, err := DecodeTopology(attr)
		if err != nil {
			continue // a malformed record must not blind the watcher
		}
		if !found || t.Epoch > best.Epoch {
			best, found = t, true
		}
	}
	return best, found
}

// OwnerFunc materializes t's ring once and returns the key→member
// ownership function — what a migration predicate evaluates per entry.
func OwnerFunc(t Topology) func(key string) string {
	labels := make(map[string][]string, len(t.Members))
	order := make([]string, 0, len(t.Members))
	for _, m := range t.Members {
		labels[m.ID] = m.Labels
		order = append(order, m.ID)
	}
	return newRingLabels(order, labels).get
}

// Topology returns the router's current membership as a Topology at the
// current topology epoch — the starting point a reshard mutates before
// publishing Epoch+1.
func (r *Router) Topology() Topology {
	v := r.snapshot()
	t := Topology{Epoch: v.topoEpoch}
	for _, id := range v.order {
		t.Members = append(t.Members, TopoMember{
			ID:     id,
			Labels: append([]string(nil), v.labels[id]...),
			Epoch:  v.epochs[id],
		})
	}
	return t
}

// TopoEpoch returns the topology epoch of the current view (0 until the
// first reshard).
func (r *Router) TopoEpoch() uint64 { return r.snapshot().topoEpoch }

// Ownership returns the fraction of the hash space each shard currently
// owns — the imbalance view surfaced on /healthz.
func (r *Router) Ownership() map[string]float64 { return r.snapshot().ring.fractions() }

// ApplyTopology moves the router to topology t. Members new to the router
// are resolved through resolve (typically Resolver over the lookup
// service); members absent from t are dropped from the ring (the merge
// path). A topology whose epoch is not strictly newer than the view's is
// ignored, and per-member replication epochs only ever ratchet up: if the
// router already holds a newer handle for a ring position (a failover
// retarget raced the reshard), that handle survives.
//
// A topology that names a member twice, or gives a label to two members
// (or twice to one), is refused with an error.
//
// Returns whether the topology was applied (false means it was stale).
func (r *Router) ApplyTopology(t Topology, resolve func(ringID string) (Shard, error)) (bool, error) {
	cur := r.snapshot()
	if t.Epoch <= cur.topoEpoch {
		return false, nil
	}
	if len(t.Members) == 0 {
		return false, fmt.Errorf("shard: topology %d has no members", t.Epoch)
	}
	// Resolve outside the lock: dialing may block.
	resolved := make(map[string]Shard, len(t.Members))
	owners := make(map[string]string)
	for _, m := range t.Members {
		if len(m.Labels) == 0 {
			return false, fmt.Errorf("shard: topology %d: member %q owns no labels", t.Epoch, m.ID)
		}
		if _, dup := resolved[m.ID]; dup {
			return false, fmt.Errorf("shard: topology %d names member %q twice", t.Epoch, m.ID)
		}
		for _, l := range m.Labels {
			if o, dup := owners[l]; dup {
				return false, fmt.Errorf("shard: topology %d gives label %q to %q and %q", t.Epoch, l, o, m.ID)
			}
			owners[l] = m.ID
		}
		if have, ok := cur.shards[m.ID]; ok && cur.epochs[m.ID] >= m.Epoch {
			resolved[m.ID] = Shard{ID: m.ID, Space: have, Epoch: cur.epochs[m.ID]}
			continue
		}
		if resolve == nil {
			return false, fmt.Errorf("shard: topology %d: no resolver for new member %q", t.Epoch, m.ID)
		}
		s, err := resolve(m.ID)
		if err != nil {
			return false, fmt.Errorf("shard: topology %d: resolve %q: %w", t.Epoch, m.ID, err)
		}
		resolved[m.ID] = s
	}
	r.mu.Lock()
	if t.Epoch <= r.v.topoEpoch {
		r.mu.Unlock()
		return false, nil // lost the race to a newer topology
	}
	v := &view{
		shards:    make(map[string]space.Space, len(t.Members)),
		epochs:    make(map[string]uint64, len(t.Members)),
		labels:    make(map[string][]string, len(t.Members)),
		topoEpoch: t.Epoch,
	}
	for _, m := range t.Members {
		s := resolved[m.ID]
		// Prefer whatever the live view holds now if it advanced past the
		// snapshot we resolved against (a failover mid-apply).
		if liveEpoch, ok := r.v.epochs[m.ID]; ok && liveEpoch > s.Epoch {
			s = Shard{ID: m.ID, Space: r.v.shards[m.ID], Epoch: liveEpoch}
		}
		v.shards[m.ID] = s.Space
		v.epochs[m.ID] = s.Epoch
		v.labels[m.ID] = append([]string(nil), m.Labels...)
		v.order = append(v.order, m.ID)
	}
	sort.Strings(v.order)
	v.ring = newRingLabels(v.order, v.labels)
	r.v = v
	r.syncPositions(v)
	r.mu.Unlock()
	// Record the adoption outside the view lock: flight recording takes
	// the recorder's own mutex and must never nest inside r.mu.
	r.opts.Obs.Fl().Observe(t.Clk)
	r.flight(obs.FlightEvent{Kind: obs.EventTopoAdopt, Shard: "ring", Epoch: t.Epoch,
		Detail: fmt.Sprintf("%d members", len(t.Members))})
	return true, nil
}
