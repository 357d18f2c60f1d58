package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

var chaosEpoch = time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC)

// proxyRouter builds a Router over k shard services on an in-process
// network, dialing each as "master" under plan (nil: no plan). Shard i
// listens at "shard-i"; skip lists indices that get no listener at all (a
// registered address whose server never came up).
func proxyRouter(t *testing.T, clk vclock.Clock, net *transport.Network, plan *faults.Plan, k int, skip ...int) *Router {
	t.Helper()
	dead := make(map[int]bool)
	for _, i := range skip {
		dead[i] = true
	}
	shards := make([]Shard, k)
	for i := 0; i < k; i++ {
		addr := fmt.Sprintf("shard-%d", i)
		if !dead[i] {
			srv := transport.NewServer()
			space.NewService(space.NewLocal(clk), srv)
			net.Listen(addr, srv)
		}
		c := net.Dial(addr)
		if plan != nil {
			c = plan.WrapClient("master", addr, c)
		}
		shards[i] = Shard{ID: addr, Space: space.NewProxy(c)}
	}
	r, err := New(Options{Clock: clk}, shards)
	if err != nil {
		t.Fatal(err)
	}
	r.slice, r.poll = 50*time.Millisecond, 5*time.Millisecond
	return r
}

// keyFor finds a key string the router's ring places on shard id.
func keyFor(t *testing.T, r *Router, id string) string {
	t.Helper()
	v := r.snapshot()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v.ring.get(k) == id {
			return k
		}
	}
	t.Fatalf("no key maps to %s", id)
	return ""
}

// TestChaosNoListenerShardScatterDegrades: one of four registered shard
// addresses has no listener behind it. Scatter lookups must still serve
// entries from the three live shards, and the dead shard must surface as a
// typed ShardError — not a bare string — when it is the only possible
// source.
func TestChaosNoListenerShardScatterDegrades(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())
	r := proxyRouter(t, clk, net, nil, 4, 2)

	// Unkeyed writes round-robin; one in four lands on the dead shard and
	// fails. Write until three entries made it to live shards.
	wrote := 0
	for i := 0; wrote < 3 && i < 16; i++ {
		if _, err := r.Write(blob{Val: i}, nil, tuplespace.Forever); err == nil {
			wrote++
		} else {
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("write to dead shard: err %v, want *ShardError", err)
			}
			if se.Shard != "shard-2" {
				t.Fatalf("ShardError.Shard = %q, want shard-2", se.Shard)
			}
			if !errors.Is(err, transport.ErrNoSuchService) {
				t.Fatalf("ShardError should unwrap to ErrNoSuchService, got %v", err)
			}
		}
	}
	if wrote != 3 {
		t.Fatalf("only %d writes landed on live shards", wrote)
	}
	// Every live entry is still reachable by scatter take.
	for i := 0; i < 3; i++ {
		if _, err := r.TakeIfExists(blob{}, nil); err != nil {
			t.Fatalf("scatter take %d with a dead shard present: %v", i, err)
		}
	}
	// Space drained: now the dead shard is the only unknown, and the sweep
	// reports it as a typed error rather than pretending no-match.
	_, err := r.TakeIfExists(blob{}, nil)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "shard-2" {
		t.Fatalf("drained sweep: err %v, want ShardError{shard-2}", err)
	}

	// A keyed op routed to the dead shard fails fast and typed.
	key := keyFor(t, r, "shard-2")
	start := time.Now()
	_, err = r.Take(kv{Key: key}, nil, 5*time.Second)
	if !errors.As(err, &se) || se.Shard != "shard-2" {
		t.Fatalf("keyed take on dead shard: err %v, want ShardError{shard-2}", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("keyed take on dead shard took %v, want fast failure", elapsed)
	}
}

// TestChaosPartitionedShardBoundedScatter: a fault plan cuts the master
// off from one of four shards. A blocking scatter Take with a timeout must
// neither hang nor fail the healthy shards — it serves available entries,
// and on a truly empty space returns within the timeout with ErrTimeout
// still matchable (so the master's retry loop keeps going) and the
// partitioned shard discoverable via errors.As.
func TestChaosPartitionedShardBoundedScatter(t *testing.T) {
	clk := vclock.NewVirtual(chaosEpoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Loopback())
		plan := faults.NewPlan(11)
		plan.Bind(clk)
		plan.PartitionOneWay("master", "shard-1", 0, 0) // forever
		r := proxyRouter(t, clk, net, plan, 4)

		// Entries on healthy shards are still found by blocking scatter.
		for i := 0; ; i++ {
			if _, err := r.Write(blob{Val: i}, nil, tuplespace.Forever); err == nil {
				break // landed on a healthy shard
			}
		}
		if _, err := r.Take(blob{}, nil, 2*time.Second); err != nil {
			t.Fatalf("blocking take with partitioned shard: %v", err)
		}

		// Empty space: the take must return at its deadline — bounded, no
		// hang — as a timeout that carries the partition diagnosis.
		const timeout = 2 * time.Second
		start := clk.Now()
		_, err := r.Take(blob{}, nil, timeout)
		elapsed := clk.Now().Sub(start)
		if err == nil {
			t.Fatal("take on empty partitioned space succeeded")
		}
		if !errors.Is(err, tuplespace.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout matchable", err)
		}
		var se *ShardError
		if !errors.As(err, &se) || se.Shard != "shard-1" {
			t.Fatalf("err = %v, want joined ShardError{shard-1}", err)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected in chain", err)
		}
		if elapsed < timeout || elapsed > timeout+time.Second {
			t.Fatalf("take returned after %v, want ≈%v (bounded, no hang)", elapsed, timeout)
		}

		// Same bound under a transaction.
		tx, err := r.BeginTxn(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		start = clk.Now()
		_, err = r.Take(blob{}, tx, timeout)
		elapsed = clk.Now().Sub(start)
		if !errors.Is(err, tuplespace.ErrTimeout) || !errors.As(err, &se) {
			t.Fatalf("txn take: err = %v, want ErrTimeout + ShardError", err)
		}
		if elapsed < timeout || elapsed > timeout+time.Second {
			t.Fatalf("txn take returned after %v, want ≈%v", elapsed, timeout)
		}
		tx.Abort()

		if plan.Counters().Get(faults.EventPartitioned) == 0 {
			t.Fatal("no partitioned calls counted")
		}
	})
}

// TestChaosAllShardsDownFailsFast: when every shard hard-fails there is
// nothing to fail over to — a blocking take must return the shard error
// immediately instead of burning its whole timeout.
func TestChaosAllShardsDownFailsFast(t *testing.T) {
	clk := vclock.NewVirtual(chaosEpoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Loopback())
		plan := faults.NewPlan(12)
		plan.Bind(clk)
		plan.PartitionOneWay("master", "shard-*", 0, 0)
		r := proxyRouter(t, clk, net, plan, 4)

		start := clk.Now()
		_, err := r.Take(blob{}, nil, time.Minute)
		elapsed := clk.Now().Sub(start)
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want ShardError", err)
		}
		if errors.Is(err, tuplespace.ErrTimeout) {
			t.Fatalf("total outage reported as timeout: %v", err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("total outage took %v to surface, want fast", elapsed)
		}
	})
}
