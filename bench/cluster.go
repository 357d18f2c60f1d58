package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// clusterSpec says which cmd/master configuration a workload runs on.
type clusterSpec struct {
	shards     int
	durable    bool // -datadir with -fsync interval, strict journal
	replicated bool // -replicas 1 -replack sync, clients route with -exactly-once
}

// failoverTimeout is how long a backup waits for its primary before it
// promotes itself. No benchmark kills a primary, so a promotion could
// only be a stalled sandbox misread as a failure; the timeout is set
// beyond any run so that cannot fail operations.
const failoverTimeout = 10 * time.Minute

// durableFsync is the durable shard's flush policy: an append syncs when
// 100 ms (the WAL's default interval) have passed since the last sync.
// fsync on every record would be the stricter test, but on the sandbox's
// shared disk its latency moved from 105 µs to about 400 µs for minutes
// at a time, which halved the workload's throughput between two sets of
// runs of one binary; no bound could tell a regression from that. The
// price of a sync per record is still measured, unbounded, as
// wal.append_always_us.
const durableFsync = wal.FsyncInterval

// node is one shard server, assembled the way cmd/master assembles it
// and from the same exported constructors.
type node struct {
	local *space.Local
	dur   *space.Durable
	svc   *space.Service
	ln    *transport.TCPListener

	// Replicated shards only.
	primary *replica.Primary
	backup  *replica.Backup
	blocal  *space.Local
	bln     *transport.TCPListener
	mirror  transport.Client

	// Traced clusters only.
	relay *relay
	probe *walProbe
}

// cluster is the set of shard servers one workload runs against, plus
// the client handles dialed to it.
type cluster struct {
	spec    clusterSpec
	dataDir string
	tr      *tracer // nil unless this is the traced pass
	clk     vclock.Clock
	nodes   []*node
	handles []space.Space
	pumps   sync.WaitGroup

	// Traced clusters only: what cmd/master -obs would register.
	ctr      *metrics.Counters
	syncHist *metrics.Histogram
}

// newCluster builds and starts every shard of spec. dataDir is used by
// durable specs only. A non-nil tr makes this the traced pass's cluster:
// counters on, spans around every boundary, clients routed through a
// byte-counting relay.
func newCluster(spec clusterSpec, dataDir string, tr *tracer) (*cluster, error) {
	c := &cluster{spec: spec, dataDir: dataDir, tr: tr, clk: vclock.NewReal()}
	if tr != nil {
		c.ctr = metrics.NewCounters()
		c.syncHist = metrics.NewHistogram()
	}
	for i := 0; i < spec.shards; i++ {
		n, err := c.startNode(i)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

func (c *cluster) startNode(i int) (_ *node, err error) {
	n := &node{}
	defer func() {
		if err != nil {
			c.stopNode(n)
		}
	}()

	var psw *replica.SwitchSink
	if c.spec.replicated {
		psw = replica.NewSwitchSink()
	}
	switch {
	case c.spec.durable:
		opts := space.DurableOptions{
			Dir:      filepath.Join(c.dataDir, fmt.Sprintf("shard%d", i)),
			Fsync:    durableFsync,
			Strict:   true,
			Counters: c.ctr,
			SyncHist: c.syncHist,
		}
		if c.tr != nil {
			n.probe = &walProbe{t: c.tr}
			opts.WrapWriter = n.probe.wrap
			opts.Tee = n.probe
		}
		if n.local, n.dur, err = space.NewLocalDurable(c.clk, opts); err != nil {
			return nil, fmt.Errorf("durable shard %d: %w", i, err)
		}
	default:
		n.local = space.NewLocal(c.clk)
		if psw != nil {
			if err = n.local.TS.AttachJournal(tuplespace.NewJournalSink(psw)); err != nil {
				return nil, err
			}
		}
	}

	srv := transport.NewServer()
	n.svc = space.NewService(n.local, srv)
	n.svc.Admission().Configure(space.AdmissionConfig{Clock: c.clk, Counters: c.ctr})
	if c.spec.replicated {
		if err = c.attachBackup(n, srv, psw); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if c.tr != nil {
		srv.WrapPrefix("space.", c.tr.dispatchSpans)
	}
	if n.ln, err = transport.ListenTCP("127.0.0.1:0", srv); err != nil {
		return nil, err
	}
	if c.tr != nil {
		if n.relay, err = newRelay(n.ln.Addr()); err != nil {
			return nil, err
		}
	}
	if n.primary != nil {
		c.pumps.Add(2)
		go func() { defer c.pumps.Done(); n.primary.Run() }()
		go func() { defer c.pumps.Done(); n.backup.Run() }()
		// The first flush pushes the (empty) snapshot that brings the
		// backup into the stream; do it in set-up, not in the first op.
		if err = n.primary.Flush(); err != nil {
			return nil, fmt.Errorf("initial sync: %w", err)
		}
	}
	return n, nil
}

// attachBackup gives n a hot standby on its own listener, wired exactly
// as cmd/master's newReplicaPair wires it.
func (c *cluster) attachBackup(n *node, srv *transport.Server, psw *replica.SwitchSink) error {
	bsrv := transport.NewServer()
	n.blocal = space.NewLocal(c.clk)
	if err := n.blocal.TS.AttachJournal(tuplespace.NewJournalSink(replica.NewSwitchSink())); err != nil {
		return err
	}
	var err error
	if n.bln, err = transport.ListenTCP("127.0.0.1:0", bsrv); err != nil {
		return err
	}
	n.primary = replica.NewPrimary(n.local, replica.PrimaryOptions{Clock: c.clk, Ack: replica.AckSync, Counters: c.ctr})
	psw.Set(n.primary.Sink())
	if n.mirror, err = transport.DialTCP(n.bln.Addr()); err != nil {
		return err
	}
	if c.tr != nil {
		n.primary.SetMirror(shipClient{Client: n.mirror, t: c.tr})
	} else {
		n.primary.SetMirror(n.mirror)
	}
	srv.WrapPrefix("space.", n.primary.Middleware())
	n.backup = replica.NewBackup(n.blocal, replica.BackupOptions{Clock: c.clk, FailoverTimeout: failoverTimeout, Counters: c.ctr})
	n.backup.Bind(bsrv)
	return nil
}

// stopNode tears one shard down in dependency order. Safe on a partly
// built node.
func (c *cluster) stopNode(n *node) {
	if n.relay != nil {
		n.relay.close()
	}
	if n.ln != nil {
		n.ln.Close()
	}
	if n.primary != nil {
		n.primary.Stop()
	}
	if n.backup != nil {
		n.backup.Stop()
	}
	if n.mirror != nil {
		n.mirror.Close()
	}
	if n.bln != nil {
		n.bln.Close()
	}
	if n.local != nil {
		n.local.Close()
	}
	if n.blocal != nil {
		n.blocal.Close()
	}
	if n.dur != nil {
		n.dur.Close()
	}
}

// addr is where clients reach shard i: the relay when traced.
func (c *cluster) addr(i int) string {
	if r := c.nodes[i].relay; r != nil {
		return r.addr()
	}
	return c.nodes[i].ln.Addr()
}

// dial returns one client's handle: a proxy for a single shard, else a
// router over one proxy per shard, as cmd/worker builds it. Ring IDs are
// the shard's index, not its ephemeral address, so key placement depends
// on the seed alone.
func (c *cluster) dial(name string) (space.Space, error) {
	if len(c.nodes) == 1 {
		p, err := space.Dial(c.addr(0))
		if err != nil {
			return nil, err
		}
		c.handles = append(c.handles, p)
		return p, nil
	}
	shards := make([]shard.Shard, len(c.nodes))
	for i := range c.nodes {
		p, err := space.Dial(c.addr(i))
		if err != nil {
			for _, s := range shards[:i] {
				s.Space.Close()
			}
			return nil, err
		}
		shards[i] = shard.Shard{ID: fmt.Sprintf("shard%d", i), Space: p, Epoch: 1}
	}
	r, err := shard.New(shard.Options{Clock: c.clk, Seed: name, ExactlyOnce: c.spec.replicated, Counters: c.ctr}, shards)
	if err != nil {
		return nil, err
	}
	c.handles = append(c.handles, r)
	return r, nil
}

// hangUp closes every client handle dialed so far.
func (c *cluster) hangUp() {
	for _, h := range c.handles {
		h.Close()
	}
	c.handles = nil
}

// restart closes shard 0 and reopens it from its data directory, going
// through WAL recovery as a restarted cmd/master would.
func (c *cluster) restart() (space.RecoveryInfo, error) {
	c.hangUp()
	c.stopNode(c.nodes[0])
	n, err := c.startNode(0)
	if err != nil {
		c.nodes = nil
		return space.RecoveryInfo{}, err
	}
	c.nodes[0] = n
	return n.dur.Info(), nil
}

// close stops everything the cluster started and waits for it.
func (c *cluster) close() {
	c.hangUp()
	for _, n := range c.nodes {
		c.stopNode(n)
	}
	c.nodes = nil
	c.pumps.Wait()
}
