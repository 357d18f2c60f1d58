package core

import (
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/discovery"
	"gospaces/internal/shard"
	"gospaces/internal/shardhost"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"
)

// tcpLookup serves a lookup service on a loopback port for the test's
// life and returns its address and the registry behind it.
func tcpLookup(t *testing.T, clk vclock.Clock) (string, *discovery.Registry) {
	t.Helper()
	reg := discovery.NewRegistry(clk)
	srv := transport.NewServer()
	discovery.NewService(reg, srv)
	l, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr(), reg
}

// leased is net with the binding's lease — the shard host's and every
// worker node's — set to ttl.
func leased(net Net, ttl time.Duration) Net {
	return func(clock vclock.Clock) (*links, error) {
		l, err := net(clock)
		if err != nil {
			return nil, err
		}
		l.shards.Lease = ttl
		node := l.node
		l.node = func(name string) workerhost.Env {
			env := node(name)
			env.Lease = ttl
			return env
		}
		return l, nil
	}
}

// TestTCPLeasesOutliveTheirTTL pins the lease hazard of the TCP network:
// the shard host's lookup renewals are spawned when New lists its items,
// before any Run. With a 300 ms binding lease every shard registration and
// the elastic host's topology record must still be in the lookup service
// 3×TTL after New and again 3×TTL into a Run, beside the worker node's. A
// host process spawned outside a Run is dropped in process; over TCP that
// would let a master's registrations expire before its job started.
func TestTCPLeasesOutliveTheirTTL(t *testing.T) {
	const ttl = 300 * time.Millisecond
	clk := vclock.NewReal()
	lookup, reg := tcpLookup(t, clk)
	f := mustNew(t, clk, leased(TCP(lookup, "127.0.0.1:0", nil), ttl), Config{
		Spec:          shardhost.Spec{Shards: 2, Elastic: true},
		Workers:       cluster.Uniform(1, 1.0),
		ResultTimeout: 30 * time.Second,
	})
	defer f.Close()
	registered := func(when string, want map[string]int) {
		for typ, n := range want {
			if got := len(reg.Lookup(map[string]string{"type": typ})); got != n {
				t.Errorf("%s: %d %s registrations in the lookup service, want %d", when, got, typ, n)
			}
		}
	}

	clk.Sleep(3*ttl + ttl/2)
	registered("3×TTL after New", map[string]int{shard.SpaceType: 2, shard.TopoType: 1})
	cfg := smallMCConfig()
	cfg.TotalSims = 800 // 8 tasks of 200 ms on one worker: the run outlasts the check
	script := func(f *Framework) {
		f.Clock.Sleep(3*ttl + ttl/2)
		registered("3×TTL into Run", map[string]int{shard.SpaceType: 2, shard.TopoType: 1, workerhost.ServiceType: 1})
	}
	if _, err := f.Run(montecarlo.NewJob(cfg), script); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCloseWithdrawsEveryListing runs two elastic deployments one after
// the other against one lookup service. The first one's Close must leave
// none of its items listed: a topology record left behind ties the second
// host's at epoch 1 and, registered earlier, wins, so the second host's
// worker would try to join the first host's dead ring.
func TestTCPCloseWithdrawsEveryListing(t *testing.T) {
	clk := vclock.NewReal()
	lookup, reg := tcpLookup(t, clk)
	cfg := Config{
		Spec:          shardhost.Spec{Shards: 2, Elastic: true},
		Workers:       cluster.Uniform(1, 1.0),
		ResultTimeout: 30 * time.Second,
	}
	first := mustNew(t, clk, TCP(lookup, "127.0.0.1:0", nil), cfg)
	first.Close()
	for _, it := range reg.Lookup(nil) {
		t.Errorf("after the first host's Close the lookup service lists %s at %s", it.Name, it.Address)
	}

	second := mustNew(t, clk, TCP(lookup, "127.0.0.1:0", nil), cfg)
	defer second.Close()
	mc := smallMCConfig()
	mc.TotalSims = 400 // 4 tasks
	res, err := second.Run(montecarlo.NewJob(mc), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range res.WorkerStats {
		if st.TasksDone != 4 {
			t.Errorf("%s did %d tasks, want 4", name, st.TasksDone)
		}
	}
}
