package core

import (
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/discovery"
	"gospaces/internal/shardhost"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// TestTCPLeasesOutliveTheirTTL pins the lease hazard of the TCP network:
// the unreplicated shards' lookup renewals are spawned when New hosts them,
// before any Run. With a 300 ms lease every shard registration must still
// be in the lookup service 3×TTL after New and again 3×TTL into a Run. A
// host process spawned outside a Run is dropped in process; over TCP that
// would let a master's registrations expire before its job started.
func TestTCPLeasesOutliveTheirTTL(t *testing.T) {
	const ttl = 300 * time.Millisecond
	clk := vclock.NewReal()
	reg := discovery.NewRegistry(clk)
	srv := transport.NewServer()
	discovery.NewService(reg, srv)
	l, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f := mustNew(t, clk, TCP(l.Addr(), "127.0.0.1:0"), Config{
		Spec:          shardhost.Spec{Shards: 2, LeaseTTL: ttl},
		Workers:       cluster.Uniform(1, 1.0),
		ResultTimeout: 30 * time.Second,
	})
	defer f.Close()
	registered := func(when string) {
		if n := len(reg.Lookup(map[string]string{"type": "javaspace"})); n != 2 {
			t.Errorf("%s: %d javaspace registrations in the lookup service, want 2", when, n)
		}
	}

	clk.Sleep(3*ttl + ttl/2)
	registered("3×TTL after New")
	cfg := smallMCConfig()
	cfg.TotalSims = 800 // 8 tasks of 200 ms on one worker: the run outlasts the check
	script := func(f *Framework) {
		f.Clock.Sleep(3*ttl + ttl/2)
		registered("3×TTL into Run")
	}
	if _, err := f.Run(montecarlo.NewJob(cfg), script); err != nil {
		t.Fatal(err)
	}
}
