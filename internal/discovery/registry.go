// Package discovery implements a Jini-style lookup service: service
// providers register themselves with a set of attributes under a lease
// (the join protocol), and clients locate services by associative
// attribute lookup (the discovery protocol). The master module registers
// the JavaSpaces service here; workers and the network-management module
// find it by attribute template, exactly as Jini clients locate a
// JavaSpace through the lookup server in the paper's §3.
package discovery

import (
	"errors"
	"sort"
	"sync"
	"time"

	"gospaces/internal/vclock"
)

// WellKnownAddress is the address the lookup service binds on in-process
// networks — the stand-in for Jini's well-known multicast discovery port.
const WellKnownAddress = "jini.lookup"

// ServiceItem describes a registered service: a human-readable name, the
// transport address where the service listens, and free-form attributes
// used for associative lookup.
type ServiceItem struct {
	Name       string
	Address    string
	Attributes map[string]string
}

// ErrNotRegistered is returned for a registration that is unknown or lapsed.
var ErrNotRegistered = errors.New("discovery: registration not found or expired")

// Registry is the in-memory lookup service state.
type Registry struct {
	clock vclock.Clock

	mu     sync.Mutex
	nextID uint64
	items  map[uint64]*regEntry
}

type regEntry struct {
	item   ServiceItem
	expiry time.Time // zero = forever
}

// NewRegistry returns an empty registry on the given clock.
func NewRegistry(clock vclock.Clock) *Registry {
	return &Registry{clock: clock, nextID: 1, items: make(map[uint64]*regEntry)}
}

// Register adds item under a lease of ttl (<= 0 for no expiry) and returns
// the registration ID used for renewal and cancellation.
func (r *Registry) Register(item ServiceItem, ttl time.Duration) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	e := &regEntry{item: item}
	if ttl > 0 {
		e.expiry = r.clock.Now().Add(ttl)
	}
	r.items[id] = e
	return id
}

// Renew extends registration id's lease to now+ttl.
func (r *Registry) Renew(id uint64, ttl time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.items[id]
	if !ok || r.expiredLocked(e) {
		delete(r.items, id)
		return ErrNotRegistered
	}
	if ttl > 0 {
		e.expiry = r.clock.Now().Add(ttl)
	} else {
		e.expiry = time.Time{}
	}
	return nil
}

// Cancel removes registration id.
func (r *Registry) Cancel(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.items[id]
	if !ok || r.expiredLocked(e) {
		delete(r.items, id)
		return ErrNotRegistered
	}
	delete(r.items, id)
	return nil
}

// Lookup returns every live service whose attributes are a superset of
// tmpl (an empty or nil tmpl matches all), ordered by registration.
func (r *Registry) Lookup(tmpl map[string]string) []ServiceItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]uint64, 0, len(r.items))
	for id, e := range r.items {
		if r.expiredLocked(e) {
			delete(r.items, id)
			continue
		}
		if attrsMatch(tmpl, e.item.Attributes) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]ServiceItem, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.items[id].item)
	}
	return out
}

// Len returns the number of live registrations.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.items {
		if !r.expiredLocked(e) {
			n++
		}
	}
	return n
}

func (r *Registry) expiredLocked(e *regEntry) bool {
	return !e.expiry.IsZero() && r.clock.Now().After(e.expiry)
}

func attrsMatch(tmpl, attrs map[string]string) bool {
	for k, v := range tmpl {
		if attrs[k] != v {
			return false
		}
	}
	return true
}
