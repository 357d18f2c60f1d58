package workerhost

import (
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/snmp"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// Env is where a worker node runs — what differs between the simulator and
// a TCP deployment, and nothing else.
type Env struct {
	// Lookup is the lookup service's address.
	Lookup string
	// Dial connects this node to the node at addr.
	Dial func(addr string) (transport.Client, error)
	// Serve puts the node on the network: srv carries the rule-base signal
	// endpoint, agent answers SNMP. It returns where each is reached and a
	// function taking both off again.
	Serve func(srv *transport.Server, agent *snmp.Agent) (signal, snmpAddr string, release func(), err error)
	// Announce lists item in the lookup service, where the network manager
	// finds the node; lc is the node's own lookup client. It returns the
	// function withdrawing the listing and, for a leased listing, the
	// renewal that keeps it (nil when the listing needs none).
	Announce func(clock vclock.Clock, lc *discovery.Client, item discovery.ServiceItem) (renew *discovery.KeepAlive, withdraw func(), err error)
}

// InProcEnv runs the node at address node of an in-process network whose
// lookup service keeps registry reg. The SNMP agent shares the node's RPC
// server, and every dial is tagged with the node's address so a fault plan
// can apply per-endpoint rules (crashes, partitions) to this worker's
// traffic. The node is announced straight into reg, unleased: the
// announcement charges no modeled time.
func InProcEnv(nw *transport.Network, node string, reg *discovery.Registry) Env {
	return Env{
		Lookup: discovery.WellKnownAddress,
		Dial: func(addr string) (transport.Client, error) {
			return nw.DialAs(node, addr), nil
		},
		Serve: func(srv *transport.Server, agent *snmp.Agent) (string, string, func(), error) {
			agent.Bind(srv)
			nw.Listen(node, srv)
			// The address stays bound after the node closes — a finished
			// run's counters remain readable over SNMP — until the next
			// node built there replaces it.
			return node, node, func() {}, nil
		},
		Announce: func(_ vclock.Clock, _ *discovery.Client, item discovery.ServiceItem) (*discovery.KeepAlive, func(), error) {
			id := reg.Register(item, 0)
			return nil, func() { _ = reg.Cancel(id) }, nil
		},
	}
}

// TCPEnv runs the node over real sockets: the signal endpoint on a TCP
// listener at sigAddr, the SNMP agent on UDP at snmpAddr, dials with the
// shared retry policy (a freshly registered service may not be accepting
// yet), and an announcement under a one-minute lookup lease, so a dead
// process ages out of the lookup service.
func TCPEnv(lookupAddr, sigAddr, snmpAddr string) Env {
	return Env{
		Lookup: lookupAddr,
		Dial: func(addr string) (transport.Client, error) {
			return transport.DialTCPRetry(addr, transport.DefaultPolicy())
		},
		Serve: func(srv *transport.Server, agent *snmp.Agent) (string, string, func(), error) {
			l, err := transport.ListenTCP(sigAddr, srv)
			if err != nil {
				return "", "", nil, err
			}
			u, err := snmp.ListenUDP(snmpAddr, agent)
			if err != nil {
				l.Close()
				return "", "", nil, err
			}
			return l.Addr(), u.Addr(), func() { u.Close(); l.Close() }, nil
		},
		Announce: func(clock vclock.Clock, lc *discovery.Client, item discovery.ServiceItem) (*discovery.KeepAlive, func(), error) {
			id, err := lc.Register(item, time.Minute)
			if err != nil {
				return nil, nil, err
			}
			return discovery.NewKeepAlive(lc, clock, id, time.Minute), func() { _ = lc.Cancel(id) }, nil
		},
	}
}
