package discovery

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// RPC frames.
type registerArgs struct {
	Item ServiceItem
	TTL  time.Duration
}

type registerReply struct {
	ID uint64
}

type renewArgs struct {
	ID  uint64
	TTL time.Duration
}

type lookupArgs struct {
	Tmpl map[string]string
}

type lookupReply struct {
	Items []ServiceItem
}

func init() {
	transport.RegisterType(registerArgs{})
	transport.RegisterType(registerReply{})
	transport.RegisterType(renewArgs{})
	transport.RegisterType(lookupArgs{})
	transport.RegisterType(lookupReply{})
	transport.RegisterType(ServiceItem{})
}

// NewService exposes registry reg on srv under the "lookup." prefix.
func NewService(reg *Registry, srv *transport.Server) {
	srv.Handle("lookup.Register", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*registerArgs)
		if !ok {
			return nil, fmt.Errorf("discovery: bad register args %T", arg)
		}
		return &registerReply{ID: reg.Register(a.Item, a.TTL)}, nil
	})
	srv.Handle("lookup.Renew", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*renewArgs)
		if !ok {
			return nil, fmt.Errorf("discovery: bad renew args %T", arg)
		}
		if err := reg.Renew(a.ID, a.TTL); err != nil {
			return nil, err
		}
		return &registerReply{ID: a.ID}, nil
	})
	srv.Handle("lookup.Cancel", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*renewArgs)
		if !ok {
			return nil, fmt.Errorf("discovery: bad cancel args %T", arg)
		}
		if err := reg.Cancel(a.ID); err != nil {
			return nil, err
		}
		return &registerReply{ID: a.ID}, nil
	})
	srv.Handle("lookup.Lookup", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*lookupArgs)
		if !ok {
			return nil, fmt.Errorf("discovery: bad lookup args %T", arg)
		}
		return &lookupReply{Items: reg.Lookup(a.Tmpl)}, nil
	})
}

// Client is a remote handle on a lookup service.
type Client struct {
	c transport.Client
}

// NewClient wraps an RPC client.
func NewClient(c transport.Client) *Client { return &Client{c: c} }

// Register implements the join protocol: it registers item with the remote
// lookup service and returns a registration ID.
func (c *Client) Register(item ServiceItem, ttl time.Duration) (uint64, error) {
	res, err := c.c.Call("lookup.Register", &registerArgs{Item: item, TTL: ttl})
	if err != nil {
		return 0, err
	}
	return res.(*registerReply).ID, nil
}

// Renew extends a registration's lease.
func (c *Client) Renew(id uint64, ttl time.Duration) error {
	_, err := c.c.Call("lookup.Renew", &renewArgs{ID: id, TTL: ttl})
	return err
}

// Cancel removes a registration.
func (c *Client) Cancel(id uint64) error {
	_, err := c.c.Call("lookup.Cancel", &renewArgs{ID: id})
	return err
}

// Lookup returns services matching the attribute template.
func (c *Client) Lookup(tmpl map[string]string) ([]ServiceItem, error) {
	res, err := c.c.Call("lookup.Lookup", &lookupArgs{Tmpl: tmpl})
	if err != nil {
		return nil, err
	}
	return res.(*lookupReply).Items, nil
}

// keepAlive is the standard Jini lease discipline for long-lived
// services: it renews registration id every ttl/3 so a crashed service
// ages out of the lookup registry while live ones stay listed. Run is a
// clock process (start it with vclock.Group.Go or a plain goroutine);
// Stop terminates it. A failed renewal (e.g. the registration was
// cancelled) also ends the loop.
type keepAlive struct {
	client renewer
	clock  vclock.Clock
	id     uint64
	ttl    time.Duration
	loop   vclock.Loop

	mu  sync.Mutex
	err error
}

// renewer is the part of a lookup service a keepAlive needs: *Client, or
// any registrar with the same Renew.
type renewer interface {
	Renew(id uint64, ttl time.Duration) error
}

// newKeepAlive returns a renewal loop for registration id.
func newKeepAlive(client renewer, clock vclock.Clock, id uint64, ttl time.Duration) *keepAlive {
	return &keepAlive{client: client, clock: clock, id: id, ttl: ttl}
}

// Run renews until Stop or a renewal failure.
func (k *keepAlive) Run() {
	interval := k.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	for k.loop.Tick(k.clock, interval) {
		if err := k.client.Renew(k.id, k.ttl); err != nil {
			k.mu.Lock()
			k.err = err
			k.mu.Unlock()
			return
		}
	}
}

// Stop ends the renewal loop.
func (k *keepAlive) Stop() { k.loop.Stop() }

// Err returns the renewal error that ended the loop, if any.
func (k *keepAlive) Err() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err
}
