package shard

import (
	"errors"
	"fmt"
	"testing"

	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// flakySpace is a Local behind an interceptor that fails Write and
// ReadIfExists with a scripted error until the armed failure count is
// consumed.
type flakySpace struct {
	space.Space
	left int
}

func newFlaky(l *space.Local, err error, left int) *flakySpace {
	f := &flakySpace{left: left}
	f.Space = space.Intercept(l, func(op space.Op, next space.Doer) (space.Result, error) {
		if (op.Kind == space.OpWrite || op.Kind == space.OpReadIfExists) && f.left > 0 {
			f.left--
			return space.Result{}, err
		}
		return next.Do(op)
	})
	return f
}

// failoverRouter builds a one-shard router whose Failover resolver
// promotes onto the returned replacement space at epoch 2.
func failoverRouter(t *testing.T, clk vclock.Clock, flaky space.Space) (*Router, *space.Local) {
	t.Helper()
	promoted := space.NewLocal(clk)
	r, err := New(Options{
		Clock: clk,
		Failover: func(ringID string) (Shard, error) {
			return Shard{ID: ringID, Space: promoted, Epoch: 2}, nil
		},
	}, []Shard{{ID: "shard-0", Space: flaky, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return r, promoted
}

// TestFailoverUnambiguousWriteRetries: a Write failing with an error
// that proves it never executed (connection refused) retries
// transparently against the promoted primary.
func TestFailoverUnambiguousWriteRetries(t *testing.T) {
	clk := vclock.NewReal()
	flaky := newFlaky(space.NewLocal(clk), errors.New("dial tcp: connection refused"), 1)
	r, promoted := failoverRouter(t, clk, flaky)

	if _, err := r.Write(kv{Key: "a", Val: 1}, nil, 0); err != nil {
		t.Fatalf("unambiguous write did not fail over: %v", err)
	}
	if n, _ := promoted.Count(kv{}); n != 1 {
		t.Fatalf("promoted shard holds %d entries, want the retried write", n)
	}
}

// TestFailoverAmbiguousReadRetries: idempotent operations retry freely
// even on ambiguous failures — re-reading cannot lose or duplicate.
func TestFailoverAmbiguousReadRetries(t *testing.T) {
	clk := vclock.NewReal()
	flaky := newFlaky(space.NewLocal(clk), fmt.Errorf("%w: space.ReadIfExists after 50ms", space.ErrOpTimeout), 1)
	r, promoted := failoverRouter(t, clk, flaky)
	if _, err := promoted.Write(kv{Key: "a", Val: 7}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}

	e, err := r.ReadIfExists(kv{Key: "a"}, nil)
	if err != nil {
		t.Fatalf("ambiguous read did not fail over: %v", err)
	}
	if e.(kv).Val != 7 {
		t.Fatalf("read %v from promoted shard, want Val 7", e)
	}
}

// epochs maps each ring ID of r's current view to its epoch.
func epochs(r *Router) map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range r.Shards() {
		out[s.ID] = s.Epoch
	}
	return out
}

// TestRetargetEpochOrdering: a ring position only ever moves forward in
// epochs — a stale resolution (the deposed primary re-registering, a
// lagging lookup snapshot) must not displace the promoted serving node.
func TestRetargetEpochOrdering(t *testing.T) {
	clk := vclock.NewReal()
	r, locals := newLocalRouter(t, clk, 2)
	id := "shard-0"
	promoted := space.NewLocal(clk)

	if err := r.Retarget(id, promoted, 2); err != nil {
		t.Fatalf("retarget to epoch 2: %v", err)
	}
	if got := epochs(r)[id]; got != 2 {
		t.Fatalf("epoch after retarget = %d, want 2", got)
	}
	if r.fresh(id) != space.Space(promoted) {
		t.Fatal("retarget did not install the promoted handle")
	}

	// Equal and lower epochs are stale: rejected, handle untouched.
	for _, stale := range []uint64{2, 1, 0} {
		if err := r.Retarget(id, locals[0], stale); err == nil {
			t.Fatalf("stale retarget at epoch %d accepted", stale)
		}
	}
	if r.fresh(id) != space.Space(promoted) {
		t.Fatal("stale retarget displaced the serving handle")
	}

	// Strictly newer epochs keep winning.
	newer := space.NewLocal(clk)
	if err := r.Retarget(id, newer, 3); err != nil {
		t.Fatalf("retarget to epoch 3: %v", err)
	}
	if got := epochs(r)[id]; got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}

	// Unknown ring positions are an error, not a silent add.
	if err := r.Retarget("shard-99", newer, 5); err == nil {
		t.Fatal("retarget of unknown ring position accepted")
	}

	// The routing state still works after retargets.
	if _, err := r.Write(kv{Key: "a", Val: 1}, nil, 0); err != nil {
		t.Fatalf("write after retargets: %v", err)
	}
}
