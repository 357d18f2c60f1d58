package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestBlockingTakeReroute parks a single-key blocking take on a shard and
// then closes that shard's space under it, in the three shapes a close
// comes in, with and without Options.Failover:
//
//   - replace: a fresh space is swapped in behind the same ring ID — the
//     restart-from-WAL shape;
//   - merge: ApplyTopology drops the ring ID and hands its labels to the
//     survivor — an elastic merge retiring a split-born shard (found by
//     the scenario generator under the master's collect loop);
//   - shutdown: nothing ever replaces the space.
//
// ErrClosed guarantees the take did not execute, so in the first two
// shapes the router must re-park on whatever now owns the key and return
// its entry; in the third the close must surface instead of hanging.
//
// The Failover column exists because the parent of the commit that
// introduced Router.call had two blocking paths and only the one taken
// with Failover == nil knew how to reroute. With Failover set the take ran
// in singleBlocking, which pinned the ring ID it started with and called
// r.fresh(id).Do every round: once the merge dropped the ID that was a nil
// space.Space, and the (failover=finds-nothing, merge) cell died with a
// nil-pointer dereference. It must fail there and pass here.
func TestBlockingTakeReroute(t *testing.T) {
	resolvers := []struct {
		name string
		fn   func(string) (Shard, error)
	}{
		{"failover=nil", nil},
		{"failover=finds-nothing", func(string) (Shard, error) {
			return Shard{}, errors.New("no newer registration")
		}},
	}
	for _, res := range resolvers {
		for _, shape := range []string{"replace", "merge", "shutdown"} {
			t.Run(res.name+"/"+shape, func(t *testing.T) {
				clk := vclock.NewReal()
				locals := []*space.Local{space.NewLocal(clk), space.NewLocal(clk)}
				r, err := New(Options{Clock: clk, Failover: res.fn},
					[]Shard{{ID: "shard-0", Space: locals[0]}, {ID: "shard-1", Space: locals[1]}})
				if err != nil {
					t.Fatal(err)
				}
				r.slice, r.poll = 50*time.Millisecond, 5*time.Millisecond
				// Resolve which ring position owns the key, so the test
				// kills exactly the space the take is parked on.
				key, keyed, err := tuplespace.IndexKey(kv{Key: "reroute"})
				if err != nil || !keyed {
					t.Fatalf("index key: keyed=%t err=%v", keyed, err)
				}
				topo := r.Topology()
				victim, survivor := 0, 1
				if OwnerFunc(topo)(key) == "shard-1" {
					victim, survivor = 1, 0
				}
				id := fmt.Sprintf("shard-%d", victim)

				// A replicated ring polls a closed primary until the take's
				// own deadline — its backup may be about to promote — so
				// that cell gets a short one; everywhere else a hang would
				// show as the 30s wait.
				wait := 30 * time.Second
				if shape == "shutdown" && res.fn != nil {
					wait = 300 * time.Millisecond
				}
				type outcome struct {
					e   tuplespace.Entry
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					e, err := r.Take(kv{Key: "reroute"}, nil, wait)
					done <- outcome{e, err}
				}()
				time.Sleep(20 * time.Millisecond) // let the take park on the victim

				// Install the replacement owner and give it the entry, then
				// close the old space under the parked call.
				var owner *space.Local
				switch shape {
				case "replace":
					owner = space.NewLocal(clk)
					if err := r.Replace(id, owner); err != nil {
						t.Fatalf("replace: %v", err)
					}
				case "merge":
					owner = locals[survivor]
					merged := Topology{Epoch: topo.Epoch + 1, Members: []TopoMember{{
						ID:     topo.Members[survivor].ID,
						Labels: append(topo.Members[survivor].Labels, topo.Members[victim].Labels...),
					}}}
					if ok, err := r.ApplyTopology(merged, nil); err != nil || !ok {
						t.Fatalf("apply merge topology: applied=%t err=%v", ok, err)
					}
				}
				if owner != nil {
					if _, err := owner.Write(kv{Key: "reroute", Val: 7}, nil, tuplespace.Forever); err != nil {
						t.Fatalf("write: %v", err)
					}
				}
				if err := locals[victim].Close(); err != nil {
					t.Fatalf("close victim: %v", err)
				}

				var got outcome
				select {
				case got = <-done:
				case <-time.After(3 * time.Second):
					t.Fatal("take still parked 3s after its shard closed")
				}
				if shape == "shutdown" {
					if !errors.Is(got.err, tuplespace.ErrClosed) {
						t.Fatalf("take returned %v, want ErrClosed", got.err)
					}
					return
				}
				if got.err != nil {
					t.Fatalf("take surfaced %v instead of rerouting to the new owner", got.err)
				}
				if e, ok := got.e.(kv); !ok || e.Val != 7 {
					t.Fatalf("take returned %#v, want the new owner's entry", got.e)
				}
			})
		}
	}
}

// TestKeyedTakeFollowsSplit: a keyed blocking take parks on its key's
// owner one slice at a time, so when a split moves the key to a new member
// and a matching write lands there, the take finds it within a slice. A
// take that handed the old owner its whole wait (30 s here, the master's
// ResultTimeout in a job) stayed parked where no match would ever arrive.
// The same holds under a caller's transaction: there the take opens a
// sub-transaction on the child, and the commit removes the entry for good.
// A transaction's take used to hand the owner its whole wait in one issue
// and was stranded by the split.
func TestKeyedTakeFollowsSplit(t *testing.T) {
	for _, txn := range []bool{false, true} {
		t.Run(fmt.Sprintf("txn=%t", txn), func(t *testing.T) {
			clk := vclock.NewReal()
			r, _ := topoRouter(t, clk)
			r.slice = 100 * time.Millisecond
			key, keyed, err := tuplespace.IndexKey(kv{Key: "moving"})
			if err != nil || !keyed {
				t.Fatalf("index key: keyed=%t err=%v", keyed, err)
			}
			cur := r.Topology()
			parent := OwnerFunc(cur)(key)
			var tx space.Txn
			if txn {
				if tx, err = r.BeginTxn(time.Minute); err != nil {
					t.Fatal(err)
				}
			}

			type outcome struct {
				e   tuplespace.Entry
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				e, err := r.Take(kv{Key: "moving"}, tx, 30*time.Second)
				done <- outcome{e, err}
			}()
			time.Sleep(20 * time.Millisecond) // let the take park on the parent

			// Split the parent, giving the child whichever half holds the key.
			split := func(swap bool) Topology {
				next := Topology{Epoch: cur.Epoch + 1}
				var give []string
				for _, m := range cur.Members {
					if m.ID == parent {
						var keep []string
						keep, give = SplitLabels(m.Labels)
						if swap {
							keep, give = give, keep
						}
						m.Labels = keep
					}
					next.Members = append(next.Members, m)
				}
				next.Members = append(next.Members, TopoMember{ID: "child", Labels: give})
				return next
			}
			next := split(false)
			if OwnerFunc(next)(key) != "child" {
				next = split(true)
			}
			child := space.NewLocal(clk)
			ok, err := r.ApplyTopology(next, func(ring string) (Shard, error) { return Shard{ID: ring, Space: child}, nil })
			if err != nil || !ok {
				t.Fatalf("split apply: ok=%v err=%v", ok, err)
			}
			if _, err := r.Write(kv{Key: "moving", Val: 7}, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
			if n, err := child.Count(kv{}); err != nil || n != 1 {
				t.Fatalf("the write reached the child %d times (%v), want once", n, err)
			}
			select {
			case got := <-done:
				if e, ok := got.e.(kv); got.err != nil || !ok || e.Val != 7 {
					t.Fatalf("take returned %#v, %v; want the child's entry", got.e, got.err)
				}
			case <-time.After(r.slice + 400*time.Millisecond):
				t.Fatalf("take still parked on %s a slice after its key moved to the child", parent)
			}
			if txn {
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}
			if n, err := r.Count(kv{}); err != nil || n != 0 {
				t.Fatalf("after the take the ring counts %d entries (%v), want 0", n, err)
			}
		})
	}
}

// TestPinnedTakeParksOnce: an unkeyed blocking take on a one-shard ring
// has nowhere else to go, so the router hands the shard its whole wait in
// one issue instead of re-issuing it every slice. Through a remote Proxy
// each extra issue would be one more round trip per slice for every
// parked take of a client that reaches a single shard through a router.
func TestPinnedTakeParksOnce(t *testing.T) {
	clk := vclock.NewReal()
	var takes atomic.Int32
	sp := space.Intercept(space.NewLocal(clk), func(op space.Op, next space.Doer) (space.Result, error) {
		if op.Kind == space.OpTake {
			takes.Add(1)
		}
		return next.Do(op)
	})
	r, err := New(Options{Clock: clk}, []Shard{{ID: "shard-0", Space: sp}})
	if err != nil {
		t.Fatal(err)
	}
	r.slice = 10 * time.Millisecond
	if _, err := r.Take(kv{}, nil, 15*r.slice); !errors.Is(err, tuplespace.ErrTimeout) {
		t.Fatalf("take returned %v, want ErrTimeout", err)
	}
	if n := takes.Load(); n != 1 {
		t.Fatalf("the shard saw %d take issues over a wait of 15 slices, want 1", n)
	}
}
