package workerhost

import (
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/snmp"
	"gospaces/internal/transport"
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
	// Lease leases the node's listing in the lookup service, where the
	// network manager finds it (zero: unleased).
	Lease time.Duration

	// registrar, which only InProcEnv sets, is where the node lists itself
	// instead of through its own lookup client: the in-process registry,
	// written directly so the listing charges no modeled time.
	registrar discovery.Registrar
}

// InProcEnv runs the node at address node of an in-process network whose
// lookup service keeps registry reg. The SNMP agent shares the node's RPC
// server. The node lists itself straight into reg, unleased: the listing
// charges no modeled time.
func InProcEnv(nw *transport.Network, node string, reg *discovery.Registry) Env {
	return Env{
		Lookup: discovery.WellKnownAddress,
		Dial:   func(addr string) (transport.Client, error) { return nw.Dial(addr), nil },
		Serve: func(srv *transport.Server, agent *snmp.Agent) (string, string, func(), error) {
			agent.Bind(srv)
			nw.Listen(node, srv)
			// The address stays bound after the node closes — a finished
			// run's counters remain readable over SNMP — until the next
			// node built there replaces it.
			return node, node, func() {}, nil
		},
		registrar: discovery.Local(reg),
	}
}

// TCPEnv runs the node over real sockets: the signal endpoint on a TCP
// listener at sigAddr, the SNMP agent on UDP at snmpAddr, dials with the
// shared retry policy (a freshly registered service may not be accepting
// yet), and a listing through the node's lookup client under
// discovery.Lease, so a dead process ages out of the lookup service.
func TCPEnv(lookupAddr, sigAddr, snmpAddr string) Env {
	return Env{
		Lookup: lookupAddr,
		Dial: func(addr string) (transport.Client, error) {
			return transport.DialTCPRetry(addr, transport.Backoff{})
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
		Lease: discovery.Lease,
	}
}
