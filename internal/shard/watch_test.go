package shard

import (
	"testing"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// testCluster is an in-proc lookup service plus dialable shard spaces.
func newTestLookup(t *testing.T, clk vclock.Clock) (*discovery.Registry, *discovery.Client) {
	t.Helper()
	net := transport.NewNetwork(clk, transport.Loopback())
	reg := discovery.NewRegistry(clk)
	srv := transport.NewServer()
	discovery.NewService(reg, srv)
	net.Listen(discovery.WellKnownAddress, srv)
	return reg, discovery.NewClient(net.Dial(discovery.WellKnownAddress))
}

// discover looks the javaspace registrations up and dials each into a Shard.
func discover(t *testing.T, client *discovery.Client, dial Dialer) []Shard {
	t.Helper()
	items, err := client.Lookup(map[string]string{"type": SpaceType})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := dialItems(items, dial)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

func TestDiscoverOrdersByShardIndex(t *testing.T) {
	clk := vclock.NewReal()
	reg, client := newTestLookup(t, clk)
	// Register out of order; discovery must sort by the shard attribute.
	reg.Register(discovery.ServiceItem{
		Name: "shard-1", Address: "space.1",
		Attributes: map[string]string{"type": "javaspace", AttrShard: "1", AttrShards: "2"},
	}, 0)
	reg.Register(discovery.ServiceItem{
		Name: "shard-0", Address: "space.0",
		Attributes: map[string]string{"type": "javaspace", AttrShard: "0", AttrShards: "2"},
	}, 0)
	dialed := make(map[string]bool)
	shards := discover(t, client, func(addr string) (space.Space, error) {
		dialed[addr] = true
		return space.NewLocal(clk), nil
	})
	if len(shards) != 2 || shards[0].ID != "space.0" || shards[1].ID != "space.1" {
		t.Fatalf("shards = %+v", shards)
	}
	if !dialed["space.0"] || !dialed["space.1"] {
		t.Fatalf("dialed = %v", dialed)
	}
}

func TestWatcherStopEndsRun(t *testing.T) {
	clk := vclock.NewReal()
	_, client := newTestLookup(t, clk)
	r, _ := newLocalRouter(t, clk, 1)
	w := NewWatcher(client, clk, r, nil, time.Hour)
	done := make(chan struct{})
	go func() { w.Run(); close(done) }()
	time.Sleep(5 * time.Millisecond)
	w.Stop()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not return after Stop")
	}
}
