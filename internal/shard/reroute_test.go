package shard

import (
	"errors"
	"fmt"
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
