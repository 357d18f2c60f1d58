package shard

import (
	"errors"
	"fmt"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/space"
)

// Ring is a client's joined view of the space: the handle it operates
// through and, when that handle is a router, the parts that keep it current.
type Ring struct {
	// Space is shard 0's proxy for the classic deployment, the Router
	// otherwise.
	Space space.Space
	// Root is shard 0's ring ID — the master's address, where the code
	// server shares the listener.
	Root string
	// Router is nil when the client talks to the one shard directly.
	Router *Router
	// Watcher follows published topologies; nil unless the host is elastic.
	// The caller runs it as a clock process and stops it.
	Watcher *Watcher
}

// Join turns the javaspace registrations a client found in the lookup
// service into its Ring. How to join is decided here, once, from what the
// lookup service shows — not from the caller's own idea of the deployment:
// the client talks to the shard directly iff there is exactly one, it
// carries no replication epoch and no elastic marker, and a does not ask for
// exactly-once. Anything else routes through a ring: a failover needs a
// position to retarget, a reshard a membership that can change, and tokens
// are minted in the router. (The direct path stays because an always-on
// router would make BeginTxn lazy and move every virtual-time figure of the
// paper's single-server deployment.)
//
// Positions of a replicated or elastic host re-resolve through lc when a
// call fails. For an elastic host Join also adopts the newest published
// topology before returning — a client that joins after a reshard must not
// route one request over default placements — and returns the Watcher that
// polls for the next one every watch (zero: DefaultWatchInterval).
func Join(a Assembly, lc *discovery.Client, items []discovery.ServiceItem, dial Dialer, watch time.Duration) (Ring, error) {
	var replicated, elastic bool
	for _, it := range items {
		replicated = replicated || it.Attributes[AttrEpoch] != ""
		elastic = elastic || it.Attributes[AttrElastic] != ""
	}
	shards, err := dialItems(items, dial)
	if err != nil {
		return Ring{}, err
	}
	if len(shards) == 0 {
		return Ring{}, errors.New("shard: no javaspace service registered")
	}
	ring := Ring{Space: shards[0].Space, Root: shards[0].ID}
	if len(shards) == 1 && !replicated && !elastic && !a.ExactlyOnce {
		return ring, nil
	}
	if replicated || elastic {
		a.Failover = Resolver(lc, dial)
	}
	if ring.Router, err = Assemble(a, shards); err != nil {
		return Ring{}, err
	}
	ring.Space = ring.Router
	if !elastic {
		return ring, nil
	}
	// A failed lookup is not fatal: the watcher's first tick retries it.
	if topos, lerr := lc.Lookup(map[string]string{"type": TopoType}); lerr == nil {
		if t, ok := BestTopology(topos); ok {
			if _, err := ring.Router.ApplyTopology(t, a.Failover); err != nil {
				return Ring{}, fmt.Errorf("shard: adopt topology epoch %d: %w", t.Epoch, err)
			}
		}
	}
	ring.Watcher = NewWatcher(lc, a.Clock, ring.Router, a.Failover, watch)
	return ring, nil
}
