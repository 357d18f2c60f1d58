package shard

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestRetryBudgetTokenBucket: the bucket starts full, denies when dry, and
// refills by the success ratio capped at max.
func TestRetryBudgetTokenBucket(t *testing.T) {
	b := newRetryBudget(2, 0.5)
	if !b.Allow() || !b.Allow() {
		t.Fatal("fresh bucket denied a retry")
	}
	if b.Allow() {
		t.Fatal("empty bucket allowed a retry")
	}
	b.Success() // +0.5: still under one token
	if b.Allow() {
		t.Fatal("half a token allowed a retry")
	}
	b.Success() // 1.0: one retry's worth
	if !b.Allow() || b.Allow() {
		t.Fatal("refilled bucket did not allow exactly one retry")
	}
	for i := 0; i < 100; i++ {
		b.Success()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v after heavy refill, want capped at 2", got)
	}
}

// TestRetryBudgetExhaustedSurfacesAmbiguity: when the retry budget runs
// dry, an ambiguous tokened mutation must SURFACE its reply-lost
// error with the ambiguity counted — never be silently dropped or
// silently re-driven outside the budget.
func TestRetryBudgetExhaustedSurfacesAmbiguity(t *testing.T) {
	clk := vclock.NewReal()
	ghost := newGhost(space.NewLocal(clk), 1)
	ctr := metrics.NewCounters()
	r, err := New(Options{
		Clock:    clk,
		Seed:     "budget-test",
		Counters: ctr,
	}, []Shard{{ID: "shard-0", Space: ghost, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r.budget = newRetryBudget(1, 0.001)
	if !r.budget.Allow() {
		t.Fatal("draining the budget")
	}

	_, werr := r.Write(kv{Key: "a", Val: 1}, nil, 0)
	if !errors.Is(werr, space.ErrOpTimeout) {
		t.Fatalf("err = %v, want the ambiguous ErrOpTimeout surfaced", werr)
	}
	snap := ctr.Snapshot()
	if snap[metrics.CounterRetryAmbiguous] == 0 {
		t.Fatalf("ambiguity not counted: %v", snap)
	}
	if snap[metrics.CounterRetryBudgetDenied] == 0 {
		t.Fatalf("budget denial not counted: %v", snap)
	}
	if snap[metrics.CounterRetryAttempts] != 0 {
		t.Fatalf("a retry ran outside the budget: %v", snap)
	}
	// The op executed server-side (only the reply was lost): the entry is
	// there, the caller knows its fate is unresolved, and nothing re-drove
	// the token into a duplicate.
	if n, _ := ghost.Count(kv{}); n != 1 {
		t.Fatalf("shard holds %d entries, want 1", n)
	}
}

// TestBreakerTripsHalfOpensAndCloses walks a single shard's breaker
// through its whole lifecycle: consecutive hard failures trip it, open
// fast-fails without touching the shard, a cooldown admits one half-open
// probe, a failed probe re-opens, and a successful probe closes.
func TestBreakerTripsHalfOpensAndCloses(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	flaky := newFlaky(space.NewLocal(clk), errors.New("connection refused"), 4)
	ctr := metrics.NewCounters()
	r, err := New(Options{
		Clock:    clk,
		Seed:     "breaker-test",
		Counters: ctr,
	}, []Shard{{ID: "shard-0", Space: flaky, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r.breaker = breaker{threshold: 3, cooldown: 100 * time.Millisecond}

	clk.Run(func() {
		read := func() error {
			_, e := r.ReadIfExists(kv{Key: "a"}, nil)
			return e
		}
		// Three consecutive hard failures trip the breaker.
		for i := 0; i < 3; i++ {
			if e := read(); e == nil || errors.Is(e, ErrBreakerOpen) {
				t.Fatalf("failure %d: err = %v, want the shard's own error", i, e)
			}
		}
		if got := r.BreakerState("shard-0"); got != "open" {
			t.Fatalf("state after %d failures = %q, want open", 3, got)
		}
		// Open: fast-fail without consuming the shard's scripted failures.
		before := flaky.left
		if e := read(); !errors.Is(e, ErrBreakerOpen) {
			t.Fatalf("open breaker: err = %v, want ErrBreakerOpen", e)
		}
		if flaky.left != before {
			t.Fatal("fast-failed call reached the shard")
		}
		// Cooldown elapses: one probe is admitted, fails, re-opens.
		clk.Sleep(150 * time.Millisecond)
		if e := read(); e == nil || errors.Is(e, ErrBreakerOpen) {
			t.Fatalf("half-open probe: err = %v, want the shard's own error", e)
		}
		if got := r.BreakerState("shard-0"); got != "open" {
			t.Fatalf("state after failed probe = %q, want open", got)
		}
		if e := read(); !errors.Is(e, ErrBreakerOpen) {
			t.Fatalf("re-opened breaker: err = %v, want ErrBreakerOpen", e)
		}
		// Next cooldown: the shard has healed (scripted failures consumed);
		// the probe's soft no-match reply closes the breaker.
		clk.Sleep(150 * time.Millisecond)
		if e := read(); !errors.Is(e, tuplespace.ErrNoMatch) {
			t.Fatalf("healed probe: err = %v, want ErrNoMatch", e)
		}
		if got := r.BreakerState("shard-0"); got != "closed" {
			t.Fatalf("state after healed probe = %q, want closed", got)
		}
	})
	snap := ctr.Snapshot()
	if snap[metrics.CounterBreakerOpen] != 1 || snap[metrics.CounterBreakerClose] != 1 {
		t.Fatalf("breaker transition counters: %v", snap)
	}
	if snap[metrics.CounterBreakerFastFail] != 2 {
		t.Fatalf("fastfail count = %d, want 2: %v", snap[metrics.CounterBreakerFastFail], snap)
	}
}

// TestBreakerSuccessResetsFailures: a breaker trips on consecutive
// failures only — any reply in between starts the count again, also when
// the breaker never left the closed state.
func TestBreakerSuccessResetsFailures(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	flaky := newFlaky(space.NewLocal(clk), errors.New("connection refused"), 0)
	r, err := New(Options{Clock: clk, Seed: "reset-test"}, []Shard{{ID: "shard-0", Space: flaky, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r.breaker = breaker{threshold: 3, cooldown: 100 * time.Millisecond}
	clk.Run(func() {
		for round := 0; round < 3; round++ {
			flaky.left = 2
			for i := 0; i < 3; i++ {
				r.ReadIfExists(kv{Key: "a"}, nil) // two failures, then ErrNoMatch
			}
			if got := r.BreakerState("shard-0"); got != "closed" {
				t.Fatalf("round %d: state = %q after 2 failures and a reply, want closed", round, got)
			}
		}
	})
}

// TestBreakerIgnoresAdmissionFastFails: ErrOverloaded means the shard is
// alive and protecting itself — it must not count toward the breaker, or
// overload would cascade into a spurious trip (and, with a resolver, a
// failover storm).
func TestBreakerIgnoresAdmissionFastFails(t *testing.T) {
	clk := vclock.NewReal()
	flaky := newFlaky(space.NewLocal(clk), tuplespace.ErrOverloaded, 10)
	r, err := New(Options{
		Clock: clk,
		Seed:  "breaker-overload-test",
	}, []Shard{{ID: "shard-0", Space: flaky, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r.breaker = breaker{threshold: 2, cooldown: time.Millisecond}
	for i := 0; i < 10; i++ {
		if _, e := r.ReadIfExists(kv{Key: "a"}, nil); !errors.Is(e, tuplespace.ErrOverloaded) {
			t.Fatalf("call %d: err = %v, want ErrOverloaded passed through", i, e)
		}
	}
	if got := r.BreakerState("shard-0"); got != "closed" {
		t.Fatalf("state after 10 overload rejections = %q, want closed", got)
	}
}

// TestBreakerFastFailKeepsCause: a fast-fail names the failure that opened
// the breaker — here a per-op deadline expiry — and is never ambiguous,
// however ambiguous its cause: the fast-failed call never left the router,
// so a tokened take must surface it at once instead of replaying its token
// against the open breaker until the budget runs dry.
func TestBreakerFastFailKeepsCause(t *testing.T) {
	clk := vclock.NewReal()
	hung := newFlaky(space.NewLocal(clk), space.ErrOpTimeout, 1)
	ctr := metrics.NewCounters()
	r, err := New(Options{
		Clock:    clk,
		Seed:     "breaker-cause-test",
		Counters: ctr,
	}, []Shard{{ID: "shard-0", Space: hung, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r.breaker = breaker{threshold: 1, cooldown: time.Hour}
	if _, e := r.ReadIfExists(kv{Key: "a"}, nil); !errors.Is(e, space.ErrOpTimeout) {
		t.Fatalf("tripping read: err = %v, want ErrOpTimeout", e)
	}
	if got := r.BreakerState("shard-0"); got != "open" {
		t.Fatalf("state after a timed-out read = %q, want open", got)
	}
	ambig := ctr.Snapshot()[metrics.CounterRetryAmbiguous]

	_, e := r.Take(kv{Key: "a"}, nil, time.Second)
	if !errors.Is(e, ErrBreakerOpen) || !errors.Is(e, space.ErrOpTimeout) {
		t.Fatalf("fast-fail: err = %v, want ErrBreakerOpen naming ErrOpTimeout", e)
	}
	snap := ctr.Snapshot()
	if got := snap[metrics.CounterRetryAmbiguous]; got != ambig {
		t.Fatalf("retry:ambiguous moved %d → %d on a fast-fail: %v", ambig, got, snap)
	}
	if got := r.budget.Tokens(); got != defaultRetryTokens {
		t.Fatalf("budget = %v after a fast-fail, want untouched %d", got, defaultRetryTokens)
	}
}

// TestPositionStateBounded: the router keeps breaker, failover-throttle
// and retarget-span state per ring ID, and an elastic ring mints a new ID
// at every split. 200 cycles of "a split-born ID joins → one failing op
// trips its breaker, resolves failover and retargets it (traced) → a merge
// drops it" must leave state for exactly the live members. (Before the
// per-position table, bks, foLast and ctrlCtx each kept all 200 departed
// IDs for the life of the router.)
func TestPositionStateBounded(t *testing.T) {
	clk := vclock.NewReal()
	dead := space.Intercept(space.NewLocal(clk), func(space.Op, space.Doer) (space.Result, error) {
		return space.Result{}, errors.New("dial tcp: connection refused")
	})
	ctr := metrics.NewCounters()
	r, err := New(Options{
		Clock:    clk,
		Seed:     "positions-test",
		Counters: ctr,
		Obs:      obs.New(1),
		Failover: func(id string) (Shard, error) {
			return Shard{ID: id, Space: space.NewLocal(clk), Epoch: 2, Trace: obs.TraceContext{TraceID: 1, SpanID: 1}}, nil
		},
	}, []Shard{{ID: "shard-0", Space: space.NewLocal(clk)}})
	if err != nil {
		t.Fatal(err)
	}
	r.breaker = breaker{threshold: 1, cooldown: time.Hour}
	r.failoverBackoff = time.Nanosecond
	base := r.Topology().Members[0]
	const cycles = 200
	for i := 1; i <= cycles; i++ {
		id := fmt.Sprintf("child-%d", i)
		split := Topology{Epoch: uint64(2*i - 1), Members: []TopoMember{
			base, {ID: id, Labels: DefaultLabels(id, 4), Epoch: 1},
		}}
		if ok, err := r.ApplyTopology(split, func(ringID string) (Shard, error) {
			return Shard{ID: ringID, Space: dead, Epoch: 1}, nil
		}); err != nil || !ok {
			t.Fatalf("cycle %d split: applied=%t err=%v", i, ok, err)
		}
		// The gather reaches the dead child: its breaker trips, which
		// resolves failover and retargets the position onto a live handle.
		if _, err := r.Count(blob{}); err == nil {
			t.Fatalf("cycle %d: count over a dead shard succeeded", i)
		}
		if got := epochs(r)[id]; got != 2 {
			t.Fatalf("cycle %d: child epoch = %d, want 2 (retargeted)", i, got)
		}
		if got := r.BreakerState(id); got != "open" {
			t.Fatalf("cycle %d: child breaker = %q, want open", i, got)
		}
		merge := Topology{Epoch: uint64(2 * i), Members: []TopoMember{base}}
		if ok, err := r.ApplyTopology(merge, nil); err != nil || !ok {
			t.Fatalf("cycle %d merge: applied=%t err=%v", i, ok, err)
		}
		if got := r.BreakerState(id); got != "closed" {
			t.Fatalf("cycle %d: departed child's breaker = %q, want closed", i, got)
		}
	}
	if got := ctr.Snapshot()[metrics.CounterBreakerOpen]; got != cycles {
		t.Fatalf("breaker trips = %d, want %d", got, cycles)
	}
	r.posMu.Lock()
	var ids []string
	for id := range r.pos {
		ids = append(ids, id)
	}
	r.posMu.Unlock()
	sort.Strings(ids)
	if len(ids) != 1 || ids[0] != "shard-0" {
		t.Fatalf("position state holds %d IDs after %d split/merge cycles, want just shard-0: %v", len(ids), cycles, ids)
	}
}
