package shard

import (
	"fmt"
	"testing"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
)

// TestJoinDecidesFromRegistrations is the join rule, row by row: every set
// of registrations gets a router over its ring positions, and what the
// lookup service shows — not the caller's idea of the deployment — arms the
// resolver and the watcher.
func TestJoinDecidesFromRegistrations(t *testing.T) {
	item := func(addr string, attrs ...string) discovery.ServiceItem {
		m := map[string]string{"type": SpaceType}
		for i := 0; i < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
		return discovery.ServiceItem{Name: "javaspace", Address: addr, Attributes: m}
	}
	cases := []struct {
		name     string
		items    []discovery.ServiceItem
		members  int
		resolver bool
		watcher  bool
	}{
		{"one plain shard", []discovery.ServiceItem{item("s0", AttrShard, "0", AttrShards, "1")}, 1, false, false},
		{"two shards", []discovery.ServiceItem{item("s1", AttrShard, "1"), item("s0", AttrShard, "0")}, 2, false, false},
		{"one replicated shard", []discovery.ServiceItem{item("s0", AttrEpoch, "1", AttrRing, "s0")}, 1, true, false},
		{"one elastic shard", []discovery.ServiceItem{item("s0", AttrElastic, "1")}, 1, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewReal()
			_, client := newTestLookup(t, clk)
			dial := func(string) (space.Space, error) { return space.NewLocal(clk), nil }
			ring, err := Join(Options{Clock: clk, Seed: "w"}, client, tc.items, dial, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if ring.Root != "s0" || ring.Router == nil {
				t.Fatalf("ring = %+v, want root s0 and a router", ring)
			}
			if got := ring.Router.NumShards(); got != tc.members {
				t.Fatalf("router over %d positions, want %d", got, tc.members)
			}
			if got := ring.Router.opts.Failover != nil; got != tc.resolver {
				t.Fatalf("failover resolver = %v, want %v", got, tc.resolver)
			}
			if got := ring.Watcher != nil; got != tc.watcher {
				t.Fatalf("watcher = %v, want %v", got, tc.watcher)
			}
		})
	}
	if _, err := Join(Options{Clock: vclock.NewReal()}, nil, nil, nil, 0); err == nil {
		t.Fatal("Join over no registrations succeeded")
	}
}

// TestJoinAdoptsPublishedTopology: joining an elastic ring applies the
// newest published topology before returning — members the registrations
// alone would have given default placements get the published labels.
func TestJoinAdoptsPublishedTopology(t *testing.T) {
	clk := vclock.NewReal()
	reg, client := newTestLookup(t, clk)
	attrs := func(i int) map[string]string {
		return map[string]string{"type": SpaceType, AttrShard: fmt.Sprint(i), AttrElastic: "1"}
	}
	reg.Register(discovery.ServiceItem{Name: "s0", Address: "space.0", Attributes: attrs(0)}, 0)
	reg.Register(discovery.ServiceItem{Name: "s1", Address: "space.1", Attributes: attrs(1)}, 0)
	keep, give := SplitLabels(DefaultLabels("space.0", 64))
	enc, err := EncodeTopology(Topology{Epoch: 2, Members: []TopoMember{
		{ID: "space.0", Labels: keep}, {ID: "space.1", Labels: give},
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(discovery.ServiceItem{Name: "topology", Address: "master",
		Attributes: map[string]string{"type": TopoType, AttrTopo: enc, AttrTopoEpoch: "2"}}, 0)

	items, err := client.Lookup(map[string]string{"type": SpaceType})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(string) (space.Space, error) { return space.NewLocal(clk), nil }
	ring, err := Join(Options{Clock: clk, Seed: "w"}, client, items, dial, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.Router.TopoEpoch(); got != 2 {
		t.Fatalf("topology epoch after Join = %d, want 2", got)
	}
	got := ring.Router.Topology()
	if len(got.Members) != 2 || len(got.Members[1].Labels) != len(give) {
		t.Fatalf("joined ring = %+v, want the published labels", got)
	}
}
