package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// ghostSpace is a Local behind an interceptor that executes Write and
// Take for real, then reports the ambiguous space.ErrOpTimeout for the
// first `ghosts` calls — the reply-lost window: the op happened, only the
// caller doesn't know it. onGhost (optional)
// runs just before each lost reply, letting a test change topology inside
// the ambiguity window.
type ghostSpace struct {
	space.Space
	local   *space.Local
	ghosts  int
	onGhost func()
}

func newGhost(l *space.Local, ghosts int) *ghostSpace {
	g := &ghostSpace{local: l, ghosts: ghosts}
	g.Space = space.Intercept(l, func(op space.Op, next space.Doer) (space.Result, error) {
		res, err := next.Do(op)
		if err == nil && (op.Kind == space.OpWrite || op.Kind == space.OpTake) && g.ghosts > 0 {
			g.ghosts--
			if g.onGhost != nil {
				g.onGhost()
			}
			return space.Result{}, fmt.Errorf("%w: %s after 50ms", space.ErrOpTimeout, op.Kind.Method())
		}
		return res, err
	})
	return g
}

func eoRouter(t *testing.T, clk vclock.Clock, sp space.Space, ctr *metrics.Counters) *Router {
	t.Helper()
	r, err := New(Options{
		Clock:    clk,
		Seed:     "eo-test",
		Counters: ctr,
	}, []Shard{{ID: "shard-0", Space: sp, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestExactlyOnceAmbiguousWriteRetriesAndDedups: an ambiguous write is
// retried with the SAME token and the shard's memo collapses the replay —
// success with exactly one stored entry.
func TestExactlyOnceAmbiguousWriteRetriesAndDedups(t *testing.T) {
	clk := vclock.NewReal()
	ghost := newGhost(space.NewLocal(clk), 1)
	ctr := metrics.NewCounters()
	r := eoRouter(t, clk, ghost, ctr)

	if _, err := r.Write(kv{Key: "a", Val: 1}, nil, 0); err != nil {
		t.Fatalf("ambiguous write: %v, want retried success", err)
	}
	if n, _ := ghost.Count(kv{}); n != 1 {
		t.Fatalf("shard holds %d entries, want exactly 1 (no loss, no duplicate)", n)
	}
	snap := ctr.Snapshot()
	if snap[metrics.CounterRetryAmbiguous] == 0 || snap[metrics.CounterRetryAttempts] == 0 {
		t.Fatalf("retry counters not advanced: %v", snap)
	}
	if _, hits, _ := ghost.local.TS.MemoStats(); hits == 0 {
		t.Fatal("memo table recorded no dedup hit: the retry re-executed")
	}
}

// TestExactlyOnceAmbiguousTakeReturnsOriginal: a reply-lost take retried
// with its token gets the originally consumed entry back — nothing extra
// is consumed, nothing is lost.
func TestExactlyOnceAmbiguousTakeReturnsOriginal(t *testing.T) {
	clk := vclock.NewReal()
	ghost := newGhost(space.NewLocal(clk), 0)
	r := eoRouter(t, clk, ghost, metrics.NewCounters())

	for _, v := range []int{1, 2} {
		if _, err := r.Write(kv{Key: fmt.Sprintf("k%d", v), Val: v}, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	ghost.ghosts = 1
	got, err := r.Take(kv{Key: "k1"}, nil, time.Second)
	if err != nil {
		t.Fatalf("ambiguous take: %v, want retried success", err)
	}
	if got.(kv).Val != 1 {
		t.Fatalf("take returned %+v, want the memoized k1", got)
	}
	if n, _ := ghost.Count(kv{}); n != 1 {
		t.Fatalf("shard holds %d entries after take retry, want 1 (k2 untouched)", n)
	}
}

// TestExactlyOnceUnkeyedPinnedShardRetired: an unkeyed mutation's token
// is pinned to the shard that may already hold its effect; if that shard
// left the ring mid-retry, the retry stops and the ambiguity surfaces —
// the documented residual (DESIGN §7).
func TestExactlyOnceUnkeyedPinnedShardRetired(t *testing.T) {
	clk := vclock.NewReal()
	ghost := newGhost(space.NewLocal(clk), 1)
	r := eoRouter(t, clk, ghost, metrics.NewCounters())
	// Inside the ambiguity window — after the op executed, before the
	// retry — the pinned shard leaves the ring.
	other := space.NewLocal(clk)
	ghost.onGhost = func() {
		if err := r.setShards([]Shard{{ID: "shard-1", Space: other, Epoch: 1}}); err != nil {
			t.Error(err)
		}
	}
	_, err := r.Write(blob{Val: 7}, nil, 0)
	if !errors.Is(err, space.ErrOpTimeout) {
		t.Fatalf("unkeyed write with retired pinned shard: err = %v, want surfaced ErrOpTimeout", err)
	}
}

// TestExactlyOncePolicySeededByToken: the per-op retry schedule is seeded
// from the token, so two routers minting the same token replay the same
// jittered backoff — the property that keeps virtual-clock scenario runs
// reproducible.
func TestExactlyOncePolicySeededByToken(t *testing.T) {
	clk := vclock.NewReal()
	r := eoRouter(t, clk, space.NewLocal(clk), metrics.NewCounters())
	tok := tuplespace.OpToken{Client: "w1@1", Seq: 42}
	a, b := r.policy(tok), r.policy(tok)
	if a.Seed == 0 || a.Seed != b.Seed {
		t.Fatalf("policy seeds %d and %d, want equal and non-zero", a.Seed, b.Seed)
	}
	if c := r.policy(tuplespace.OpToken{Client: "w1@1", Seq: 43}); c.Seed == a.Seed {
		t.Fatal("distinct tokens share a jitter seed: retries would synchronize")
	}
}

// TestClientIDDependsOnSeedAndInstant: a router's token namespace is a
// function of its Seed and the instant it was built on its own clock, and
// of nothing else. At the parent commit it was Seed#<process-wide router
// count>: the same virtual-clock run replayed in one process minted
// different tokens — which seed the retry jitter — and a restarted worker
// reused its predecessor's namespace, whose memos outlive it.
func TestClientIDDependsOnSeedAndInstant(t *testing.T) {
	epoch := time.Date(2001, time.October, 8, 0, 0, 0, 0, time.UTC)
	build := func(clk vclock.Clock, seed string) string {
		t.Helper()
		r, err := New(Options{Clock: clk, Seed: seed}, []Shard{{ID: "s0", Space: space.NewLocal(clk)}})
		if err != nil {
			t.Fatal(err)
		}
		return r.clientID
	}
	first := build(vclock.NewVirtual(epoch), "node01")
	for i := 0; i < 5; i++ {
		build(vclock.NewVirtual(epoch), "node01") // routers built before the replay
	}
	if again := build(vclock.NewVirtual(epoch), "node01"); again != first {
		t.Fatalf("same seed, same instant: %q then %q", first, again)
	}
	if other := build(vclock.NewVirtual(epoch), "node02"); other == first {
		t.Fatalf("two seeds share the namespace %q", first)
	}
	if later := build(vclock.NewVirtual(epoch.Add(time.Nanosecond)), "node01"); later == first {
		t.Fatalf("a router built later (a restart) reuses the namespace %q", first)
	}
	if len(first) > len("node01@")+13 {
		t.Fatalf("client ID %q is longer than its seed plus 13 bytes", first)
	}
}
