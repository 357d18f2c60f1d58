package shard

import (
	"errors"
	"fmt"
	"time"

	"gospaces/internal/discovery"
)

// Ring is a client's joined view of the space: the router it operates
// through and, when the host is elastic, the watcher that keeps it current.
type Ring struct {
	// Router is the client's handle on the space — a one-member ring for a
	// single plain shard.
	Router *Router
	// Root is shard 0's ring ID — the master's address, where the code
	// server shares the listener.
	Root string
	// Watcher follows published topologies; nil unless the host is elastic.
	// The caller runs it as a clock process and stops it.
	Watcher *Watcher
}

// Join turns the javaspace registrations a client found in the lookup
// service into its Ring. Every client routes through a ring, one plain shard
// included: tokens are minted in the router, so there is no other way to
// reach the space with exactly-once mutations. What else the ring needs is
// decided here, once, from what the lookup service shows — not from the
// caller's own idea of the deployment: positions of a replicated or elastic
// host (a replication epoch or the elastic marker on any registration)
// re-resolve through lc when a call fails. For an elastic host Join also
// adopts the newest published topology before returning — a client that
// joins after a reshard must not route one request over default placements
// — and returns the Watcher that polls for the next one every watch (zero:
// DefaultWatchInterval).
func Join(opts Options, lc *discovery.Client, items []discovery.ServiceItem, dial Dialer, watch time.Duration) (Ring, error) {
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
	if replicated || elastic {
		opts.Failover = Resolver(lc, dial)
	}
	ring := Ring{Root: shards[0].ID}
	if ring.Router, err = New(opts, shards); err != nil {
		return Ring{}, err
	}
	if !elastic {
		return ring, nil
	}
	// A failed lookup is not fatal: the watcher's first tick retries it.
	if topos, lerr := lc.Lookup(map[string]string{"type": TopoType}); lerr == nil {
		if t, ok := BestTopology(topos); ok {
			if _, err := ring.Router.ApplyTopology(t, opts.Failover); err != nil {
				return Ring{}, fmt.Errorf("shard: adopt topology epoch %d: %w", t.Epoch, err)
			}
		}
	}
	ring.Watcher = NewWatcher(lc, ring.Router.opts.Clock, ring.Router, opts.Failover, watch)
	return ring, nil
}
