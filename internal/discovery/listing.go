package discovery

import (
	"time"

	"gospaces/internal/vclock"
)

// Lease is the lookup lease of every listing over a real network: a process
// that dies without withdrawing its items ages out within it, and renewing
// every Lease/3 costs nothing. In process there is one registry and nothing
// can outlive it, so listings there are unleased.
const Lease = time.Minute

// Registrar is the lookup service as a service provider uses it. *Client
// satisfies it as is; an in-process *Registry goes behind Local.
type Registrar interface {
	Register(item ServiceItem, ttl time.Duration) (uint64, error)
	Renew(id uint64, ttl time.Duration) error
	Cancel(id uint64) error
	Lookup(tmpl map[string]string) ([]ServiceItem, error)
}

type local struct{ *Registry }

func (r local) Register(item ServiceItem, ttl time.Duration) (uint64, error) {
	return r.Registry.Register(item, ttl), nil
}

func (r local) Lookup(tmpl map[string]string) ([]ServiceItem, error) {
	return r.Registry.Lookup(tmpl), nil
}

// Local adapts an in-process registry (whose Register and Lookup cannot
// fail) to the error-returning Registrar. Calls go straight into it and
// charge no modeled network time.
func Local(r *Registry) Registrar { return local{r} }

// Listing is one item its owner keeps in the lookup service — the one way a
// deployment lists anything. List registers it under a lease; the owner
// renews the lease while it lives (Keep, or Renew on its own pace) and
// withdraws the item when it shuts down cleanly. An owner that dies stops
// renewing and its item lapses.
type Listing struct {
	reg  Registrar
	id   uint64
	ttl  time.Duration
	keep *keepAlive // set by Keep on a leased listing
}

// List registers item with reg under a lease of ttl (<= 0: unleased).
func List(reg Registrar, item ServiceItem, ttl time.Duration) (*Listing, error) {
	id, err := reg.Register(item, ttl)
	if err != nil {
		return nil, err
	}
	return &Listing{reg: reg, id: id, ttl: ttl}, nil
}

// Keep renews a leased listing every ttl/3 on clock, in a process spawn
// starts, until Withdraw or a failed renewal. An unleased listing spawns
// nothing.
func (l *Listing) Keep(clock vclock.Clock, spawn func(func())) {
	if l.ttl <= 0 {
		return
	}
	l.keep = newKeepAlive(l.reg, clock, l.id, l.ttl)
	spawn(l.keep.Run)
}

// Renew extends the lease once, for an owner that paces its own renewals.
func (l *Listing) Renew() error { return l.reg.Renew(l.id, l.ttl) }

// Withdraw stops the renewal and cancels the registration; one that already
// lapsed is fine. A nil listing has nothing to withdraw.
func (l *Listing) Withdraw() {
	if l == nil {
		return
	}
	if l.keep != nil {
		l.keep.Stop()
	}
	_ = l.reg.Cancel(l.id) // already lapsed is fine
}
