package shard

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"gospaces/internal/discovery"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
)

// TestRingRemapFractionBound is the growth property across ring sizes:
// adding one member to a K-member ring remaps close to 1/(K+1) of a large
// key sample — never wildly more — and every remapped key lands on the new
// member (keys must not shuffle between survivors).
func TestRingRemapFractionBound(t *testing.T) {
	const keys = 20000
	for _, k := range []int{2, 3, 4, 8, 16} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			before := newRing(ringMembers(k), 64)
			after := newRing(ringMembers(k+1), 64)
			newID := fmt.Sprintf("shard-%d", k)
			moved := 0
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%d", i)
				b, a := before.get(key), after.get(key)
				if b == a {
					continue
				}
				moved++
				if a != newID {
					t.Fatalf("key %q moved %s -> %s, not to the new member", key, b, a)
				}
			}
			ideal := float64(keys) / float64(k+1)
			frac := float64(moved) / float64(keys)
			// 64 vnodes keeps the variance modest; allow ±80% around the
			// ideal share before declaring the hash broken.
			if float64(moved) > ideal*1.8 {
				t.Fatalf("grow %d->%d moved %d keys (%.1f%%), ideal %.1f%%: too many",
					k, k+1, moved, frac*100, 100/float64(k+1))
			}
			if float64(moved) < ideal*0.2 {
				t.Fatalf("grow %d->%d moved %d keys (%.1f%%), ideal %.1f%%: suspiciously few",
					k, k+1, moved, frac*100, 100/float64(k+1))
			}
		})
	}
}

// TestRouterPlacementStableAcrossDiscoverOrder: workers discover shards
// through the lookup service, whose item order is an accident of
// registration and map iteration. Whatever order dialItems receives, the
// resulting Router must compute identical key placements — otherwise two
// workers could route the same key to different shards.
func TestRouterPlacementStableAcrossDiscoverOrder(t *testing.T) {
	const k = 5
	clk := vclock.NewReal()
	items := make([]discovery.ServiceItem, k)
	for i := range items {
		items[i] = discovery.ServiceItem{
			Name:    "javaspace",
			Address: fmt.Sprintf("shard-%d", i),
			Attributes: map[string]string{
				AttrShard:  strconv.Itoa(i),
				AttrShards: strconv.Itoa(k),
			},
		}
	}
	dial := func(addr string) (space.Space, error) { return space.NewLocal(clk), nil }

	build := func(perm []discovery.ServiceItem) *Router {
		shards, err := dialItems(perm, dial)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Options{Clock: clk}, shards)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	ref := build(items)
	refView := ref.snapshot()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		perm := make([]discovery.ServiceItem, k)
		copy(perm, items)
		rng.Shuffle(k, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		r := build(perm)
		v := r.snapshot()
		if len(v.order) != k {
			t.Fatalf("trial %d: %d shards, want %d", trial, len(v.order), k)
		}
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%d", i)
			if got, want := v.ring.get(key), refView.ring.get(key); got != want {
				t.Fatalf("trial %d: key %q routed to %s, reference routes to %s", trial, key, got, want)
			}
		}
	}
}
