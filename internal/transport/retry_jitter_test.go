package transport

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// sleepLog records every backoff sleep without actually sleeping.
type sleepLog struct {
	vclock.Real
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *sleepLog) Sleep(d time.Duration) {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
}

func schedule(t *testing.T, b Backoff) []time.Duration {
	t.Helper()
	clk := &sleepLog{}
	b.Clock = clk
	err := b.Do(func() error { return errors.New("always fails") })
	if err == nil {
		t.Fatal("op always fails; Do returned nil")
	}
	return clk.sleeps
}

// TestBackoffFullJitterSeededReplay: a seeded jittered schedule is
// replayable (same seed, same sleeps), decorrelated (different seeds
// diverge), and stays inside the exponential envelope — the properties
// the exactly-once retry policy relies on under the virtual clock.
func TestBackoffFullJitterSeededReplay(t *testing.T) {
	base := Backoff{Attempts: 6, Initial: 100 * time.Millisecond, Max: time.Second, Seed: 7}
	a := schedule(t, base)
	b := schedule(t, base)
	if len(a) != 5 {
		t.Fatalf("6 attempts produced %d sleeps, want 5", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n  %v\n  %v", a, b)
	}
	other := base
	other.Seed = 8
	if c := schedule(t, other); reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 7 and 8 produced identical schedules %v: jitter is not seed-driven", a)
	}
	// Full jitter: each sleep uniform over [0, envelope], envelope
	// doubling from Initial and capped at Max.
	envelope := base.Initial
	for i, d := range a {
		if d < 0 || d > envelope {
			t.Errorf("sleep %d = %v outside [0, %v]", i, d, envelope)
		}
		envelope *= 2
		if envelope > base.Max {
			envelope = base.Max
		}
	}
}

// TestBackoffZeroSeedDeterministic: with no explicit seed the stream
// seeds from the policy parameters — still deterministic, so two identical
// policies (e.g. the zero Backoff) replay identically.
func TestBackoffZeroSeedDeterministic(t *testing.T) {
	p := Backoff{Attempts: 5}
	if !reflect.DeepEqual(schedule(t, p), schedule(t, p)) {
		t.Fatal("zero-seed jitter is not deterministic across identical policies")
	}
}

// TestBackoffFirstTryAllocatesNothing: the jitter source is made at the
// first sleep, so the zero Backoff whose op succeeds at once allocates
// nothing — every dial that connects first time.
func TestBackoffFirstTryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ok := func() error { return nil }
	if n := testing.AllocsPerRun(100, func() {
		if err := (Backoff{}).Do(ok); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Backoff{}.Do with an op that succeeds at once allocates %v times, want 0", n)
	}
}
