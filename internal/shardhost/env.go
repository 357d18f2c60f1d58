package shardhost

import (
	"fmt"
	"io"
	"net"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/transport"
)

// Node names the node a listener is for: ring position Shard's seed node,
// or — when StandbyOf is set — the hot standby of that ring position.
type Node struct {
	Shard     int
	StandbyOf string
}

// Env is what differs between the simulator and a TCP deployment — this,
// and nothing else. It carries no policy: every field is a capability the
// host calls, none selects behaviour.
type Env struct {
	// Listen binds srv for node n and returns the bound address (a seed
	// node's address becomes its ring ID) and a function releasing it.
	Listen func(n Node, srv *transport.Server) (addr string, release func(), err error)
	// Dial connects the node at from to the node at to.
	Dial func(from, to string) (transport.Client, error)
	// Registrar is the lookup service the shards join. Lease leases every
	// item the host lists there (zero: unleased) but a replicated primary's
	// registration, whose lease is Spec.FailoverTimeout, renewed by its pump.
	Registrar discovery.Registrar
	Lease     time.Duration
	// Spawn runs fn as a background process: the replication pumps, the
	// lease renewals and the auto-shard loop.
	Spawn func(fn func())
	// WrapWriter, when set, wraps the WAL segment writer of the node at
	// addr — where core puts a fault plan's disk errors.
	WrapWriter func(addr string) func(io.Writer) io.Writer

	// spaceOp is the in-process network model's transport.Model.SpaceOp,
	// which only InProcEnv sets: every serving node admits requests
	// through a FIFO service gate of this cost. A TCP host's servers
	// spend real CPU instead.
	spaceOp time.Duration
}

// InProcEnv hosts shards on an in-process network: shard 0 listens at
// root, shard i at "<root>.shard<i>", a standby at "<ring>.backup". Spawn
// starts a plain goroutine; a caller with a process group (core's Run)
// replaces it. Every node is gated at the network model's per-op server
// cost. The host lists its items straight into reg, unleased, charging no
// modeled time.
func InProcEnv(nw *transport.Network, root string, reg *discovery.Registry) Env {
	return Env{
		Listen: func(n Node, srv *transport.Server) (string, func(), error) {
			addr := root
			switch {
			case n.StandbyOf != "":
				addr = n.StandbyOf + ".backup"
			case n.Shard > 0:
				addr = fmt.Sprintf("%s.shard%d", root, n.Shard)
			}
			nw.Listen(addr, srv)
			// Addresses are never rebound, so a retired node's stays: calls
			// to it keep failing against its closed space.
			return addr, func() {}, nil
		},
		Dial:      func(_, to string) (transport.Client, error) { return nw.Dial(to), nil },
		Registrar: discovery.Local(reg),
		Spawn:     func(fn func()) { go fn() },
		spaceOp:   nw.Model().SpaceOp,
	}
}

// TCPEnv hosts shards on TCP listeners: shard 0 at addr, every other node
// on an ephemeral port of the same host, listed in reg under
// discovery.Lease. The caller sets Spawn.
func TCPEnv(addr string, reg discovery.Registrar) (Env, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return Env{}, fmt.Errorf("shardhost: bad listen address %q: %w", addr, err)
	}
	return Env{
		Listen: func(n Node, srv *transport.Server) (string, func(), error) {
			la := net.JoinHostPort(host, "0")
			if n.Shard == 0 && n.StandbyOf == "" {
				la = addr
			}
			l, err := transport.ListenTCP(la, srv)
			if err != nil {
				return "", nil, err
			}
			return l.Addr(), func() { l.Close() }, nil
		},
		Dial:      func(_, to string) (transport.Client, error) { return transport.DialTCP(to) },
		Registrar: reg,
		Lease:     discovery.Lease,
	}, nil
}
