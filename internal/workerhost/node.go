// Package workerhost owns a worker node for its whole life — the mirror of
// internal/shardhost on the side of the deployment the paper is about. It
// waits for the lookup service to show the space, joins its ring
// (shard.Join), dials the master's code server, builds the worker module,
// puts the node's signal endpoint and SNMP agent on the network, announces
// the node in the lookup service, where the network manager finds it, and
// starts, stops and closes all of it in dependency order. The simulator
// (internal/core), the TCP binary (cmd/worker) and the socket-level tests
// are configuration over it: a Spec saying what runs and an Env saying
// where. The trap-driven load watchers are the network manager's and stay
// with the caller. See DESIGN §15.
package workerhost

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/metrics"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/shard"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
)

// Community is the SNMP community every worker node's agent answers to.
const Community = "public"

// A worker node's lookup announcement: type ServiceType, the signal
// endpoint's address as the item's, and these attributes beside "node".
const (
	ServiceType = "worker"
	AttrSNMP    = "snmp" // the SNMP agent's address
	// AttrIncarnation tells a node from an earlier one announced under the
	// same name and addresses: 64 random bits drawn per node, as a Jini
	// ServiceID is random.
	AttrIncarnation = "incarnation"
)

// Spec says what runs on the node. The deployment-wide values (TxnTTL,
// WatchInterval, Obs) are the shardhost.Spec fields of the same name; a
// caller that owns both sides hands them over from there. The node's ring
// arms its retry budget and circuit breakers like every router.
type Spec struct {
	// Machine models the node's CPU; its name is the node's.
	Machine *sysmon.Machine
	// Program is the bundle the worker downloads from the code server.
	Program string
	// TaskTemplate picks the template of the tasks this worker consumes
	// from the attributes of the javaspace registration it discovered (a TCP
	// master tags its shards with the task keying).
	TaskTemplate func(attrs map[string]string) tuplespace.Entry
	// TxnTTL leases each per-task transaction (worker.Config's default).
	TxnTTL time.Duration
	// OpTimeout bounds each remote space RPC (core.Config.OpTimeout).
	OpTimeout     time.Duration
	WatchInterval time.Duration // zero: shard.DefaultWatchInterval
	// AutoStart starts the worker without waiting for a rule-base Start.
	AutoStart bool
	// Obs, if set, receives task spans and histograms, the node's view of
	// space-op latencies, and its flight events; Counters the ring's
	// failover, retry and breaker counts (nil: Obs's).
	Obs      *obs.Obs
	Counters *metrics.Counters
}

// Validate rejects a spec New cannot run.
func (s Spec) Validate() error {
	switch {
	case s.Machine == nil:
		return errors.New("workerhost: no machine")
	case s.Program == "":
		return errors.New("workerhost: no program")
	case s.TaskTemplate == nil:
		return errors.New("workerhost: no task template")
	case s.OpTimeout < 0:
		return fmt.Errorf("workerhost: optimeout must be >= 0, got %v", s.OpTimeout)
	case s.TxnTTL < 0:
		return fmt.Errorf("workerhost: txn-ttl must be >= 0, got %v", s.TxnTTL)
	}
	return nil
}

// Node is an assembled worker node.
type Node struct {
	clock vclock.Clock
	env   Env
	spec  Spec
	name  string

	lookup         *discovery.Client
	ring           shard.Ring
	worker         *worker.Worker
	addr, snmpAddr string // signal endpoint, SNMP agent
	release        func()
	listing        *discovery.Listing // the node's item in the lookup service
	// procs are the node's clock processes — worker loop and ring watcher —
	// in start order; Close waits for them, and for the listing's renewal,
	// on running.
	procs   []process
	running *vclock.Group

	// mu guards conns: the ring dials new members while the node runs.
	mu    sync.Mutex
	conns []transport.Client
}

// process is one clock process of the node: how it runs and how it is asked
// to end.
type process struct{ run, stop func() }

// New validates spec, discovers the space from env's lookup service and
// assembles the node on it. Nothing runs until Start.
func New(clock vclock.Clock, env Env, spec Spec) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Counters == nil {
		spec.Counters = spec.Obs.Ctr()
	}
	n := &Node{clock: clock, env: env, spec: spec, name: spec.Machine.Name(), running: vclock.NewGroup(clock)}
	if err := n.assemble(); err != nil {
		n.Close()
		return nil, fmt.Errorf("workerhost: %s: %w", n.name, err)
	}
	return n, nil
}

// assemble builds everything New promises; on error New closes whatever it
// had already built.
func (n *Node) assemble() error {
	spec := n.spec
	lc, err := n.dial(n.env.Lookup)
	if err != nil {
		return fmt.Errorf("dial lookup: %w", err)
	}
	n.lookup = discovery.NewClient(lc)
	items, err := n.discover()
	if err != nil {
		return fmt.Errorf("discovering space: %w", err)
	}
	n.ring, err = shard.Join(shard.Options{
		Clock: n.clock, Seed: n.name, Obs: spec.Obs, Counters: spec.Counters,
	}, n.lookup, items, func(addr string) (space.Space, error) {
		c, err := n.dial(addr)
		if err != nil {
			return nil, err
		}
		return space.NewProxy(c).WithOpTimeout(n.clock, spec.OpTimeout), nil
	}, spec.WatchInterval)
	if err != nil {
		return fmt.Errorf("joining space: %w", err)
	}

	// The code server shares shard 0's listener (the master's address).
	code, err := n.dial(n.ring.Root)
	if err != nil {
		return fmt.Errorf("dial code server: %w", err)
	}
	n.worker = worker.New(worker.Config{
		Node:    n.name,
		Clock:   n.clock,
		Machine: spec.Machine,
		// Per-op latencies as this node sees them, network included.
		Space:        obs.InstrumentSpace(n.ring.Router, n.clock, spec.Obs.Reg(), metrics.HistWorkerSpacePrefix),
		Engine:       nodeconfig.NewEngine(nodeconfig.ExecContext{Clock: n.clock, Machine: spec.Machine, Node: n.name}, code),
		Program:      spec.Program,
		TaskTemplate: spec.TaskTemplate(items[0].Attributes), // every registration carries the host's Attrs
		TxnTTL:       spec.TxnTTL,
		Obs:          spec.Obs,
	})

	// The signal endpoint is the SNMP-client side of the rule-base protocol;
	// the agent is what the network management module polls.
	n.procs = append(n.procs, process{n.worker.Run, n.worker.Shutdown})
	if w := n.ring.Watcher; w != nil {
		n.procs = append(n.procs, process{w.Run, w.Stop})
	}
	srv := transport.NewServer()
	n.worker.Bind(srv)
	if n.addr, n.snmpAddr, n.release, err = n.env.Serve(srv, snmp.NewAgent(Community, n.mib())); err != nil {
		return fmt.Errorf("serving signal endpoint and SNMP agent: %w", err)
	}
	var reg discovery.Registrar = n.lookup
	if n.env.registrar != nil {
		reg = n.env.registrar
	}
	n.listing, err = discovery.List(reg, discovery.ServiceItem{
		Name:    n.name,
		Address: n.addr,
		Attributes: map[string]string{
			"type": ServiceType, "node": n.name, AttrSNMP: n.snmpAddr,
			AttrIncarnation: strconv.FormatUint(rand.Uint64(), 16),
		},
	}, n.env.Lease)
	if err != nil {
		return fmt.Errorf("register with lookup: %w", err)
	}
	// Renewed from here to Close: a node stays listed while it is on the
	// network, started or not.
	n.listing.Keep(n.clock, n.running.Go)
	spec.Obs.Fl().Record(n.clock, obs.FlightEvent{Node: n.name, Kind: obs.EventNodeStart, Detail: "worker"})
	if spec.AutoStart {
		n.worker.AutoStart()
	}
	return nil
}

// dial connects the node to addr and remembers the connection for Close.
func (n *Node) dial(addr string) (transport.Client, error) {
	c, err := n.env.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.conns = append(n.conns, c)
	n.mu.Unlock()
	return c, nil
}

// discover waits until the lookup service shows the full shard set — every
// registration says how many seed shards its host announces — and returns
// the registrations. It retries with backoff: a master still starting, or a
// lookup service inside a crash-restart window, heals within a few attempts
// instead of failing the deployment.
func (n *Node) discover() ([]discovery.ServiceItem, error) {
	retry := transport.Backoff{Clock: n.clock, Attempts: 16, Initial: 250 * time.Millisecond, Max: 4 * time.Second}
	var items []discovery.ServiceItem
	err := retry.Do(func() error {
		var err error
		if items, err = n.lookup.Lookup(map[string]string{"type": shard.SpaceType}); err != nil {
			return err
		}
		rings := make(map[string]bool, len(items))
		want := 1
		for _, it := range items {
			rings[shard.RingID(it)] = true
			if k, _ := strconv.Atoi(it.Attributes[shard.AttrShards]); k > want {
				want = k
			}
		}
		if len(rings) < want {
			return fmt.Errorf("%d of %d javaspace shards registered", len(rings), want)
		}
		return nil
	})
	return items, err
}

// mib is the node's management information base: identity, the two load
// figures the rule base reads, and the worker's progress.
func (n *Node) mib() *snmp.MIB {
	m, w := n.spec.Machine, n.worker
	mib := snmp.NewMIB()
	mib.Register(snmp.OIDSysName, func() snmp.Value { return snmp.OctetString(n.name) })
	mib.Register(snmp.OIDSysDescr, func() snmp.Value {
		return snmp.OctetString(fmt.Sprintf("gospaces worker node (speed %.3f)", m.Speed()))
	})
	mib.Register(snmp.OIDHrProcessorLoad, func() snmp.Value {
		// Polling records a sample, building the CPU-usage trace that the
		// adaptation figures plot.
		return snmp.Integer(int64(m.RecordSample().Usage + 0.5))
	})
	mib.Register(snmp.OIDBackgroundLoad, func() snmp.Value {
		return snmp.Integer(int64(m.BackgroundLoad() + 0.5))
	})
	mib.Register(snmp.OIDWorkerTasksDone, func() snmp.Value {
		return snmp.Counter32(uint32(w.Stats().TasksDone))
	})
	mib.Register(snmp.OIDWorkerState, func() snmp.Value {
		return snmp.Integer(int64(w.State()))
	})
	return mib
}

// Name is the node's name (its machine's).
func (n *Node) Name() string { return n.name }

// Worker is the node's worker module: state, stats and signal log.
func (n *Node) Worker() *worker.Worker { return n.worker }

// Addr is where the signal endpoint answers; SNMPAddr where the agent does.
func (n *Node) Addr() string     { return n.addr }
func (n *Node) SNMPAddr() string { return n.snmpAddr }

// Router is the node's handle on the space, as the worker uses it.
func (n *Node) Router() *shard.Router { return n.ring.Router }

// Ring lists the ring positions the node currently routes over.
func (n *Node) Ring() []string {
	var ids []string
	for _, s := range n.ring.Router.Shards() {
		ids = append(ids, s.ID)
	}
	return ids
}

// Start launches the node's processes: the worker loop and, when the space
// is elastic, the ring watcher.
func (n *Node) Start() {
	for _, p := range n.procs {
		n.running.Go(p.run)
	}
}

// Stop asks every process to end: the worker at its next task boundary. The
// node stays on the network — signals and SNMP polls still answer — until
// Close.
func (n *Node) Stop() {
	for _, p := range n.procs {
		p.stop()
	}
}

// Close stops the node, withdraws its lookup listing, waits for its
// processes, takes it off the network and drops its connections.
func (n *Node) Close() {
	n.Stop()
	n.listing.Withdraw()
	n.listing = nil
	n.running.Wait()
	if n.release != nil {
		n.release()
		n.release = nil
	}
	n.mu.Lock()
	conns := n.conns
	n.conns = nil
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close() // teardown
	}
}
