package vclock

import (
	"testing"
	"time"
)

// onBothClocks runs body as a process on a fresh virtual clock and then on
// the real clock.
func onBothClocks(t *testing.T, body func(t *testing.T, c Clock)) {
	t.Run("virtual", func(t *testing.T) {
		v := NewVirtual(epoch)
		v.Run(func() { body(t, v) })
	})
	t.Run("real", func(t *testing.T) { body(t, NewReal()) })
}

func TestLoopStopBeforeTickParksNothing(t *testing.T) {
	onBothClocks(t, func(t *testing.T, c Clock) {
		var l Loop
		l.Stop()
		start := c.Now()
		for i := 0; i < 2; i++ {
			if l.Tick(c, time.Second) {
				t.Fatalf("Tick %d after Stop = true, want false", i)
			}
		}
		if got := c.Since(start); got >= 500*time.Millisecond {
			t.Fatalf("stopped Tick took %v", got)
		}
		if v, ok := c.(*Virtual); ok {
			if _, blocked, timers := v.Stats(); blocked != 0 || timers != 0 {
				t.Fatalf("stopped Tick left %d blocked, %d timers; want 0, 0", blocked, timers)
			}
		}
	})
}

func TestLoopStopDuringParkReturnsAtOnce(t *testing.T) {
	onBothClocks(t, func(t *testing.T, c Clock) {
		var l Loop
		g := NewGroup(c)
		var ran bool
		var stoppedAt, returnedAt time.Time
		g.Go(func() {
			ran = l.Tick(c, time.Hour)
			returnedAt = c.Now()
		})
		c.Sleep(10 * time.Millisecond)
		stoppedAt = c.Now()
		l.Stop()
		g.Wait()
		if ran {
			t.Fatal("Tick stopped mid-park = true, want false")
		}
		lag := returnedAt.Sub(stoppedAt)
		if _, virtual := c.(*Virtual); virtual && lag != 0 {
			t.Fatalf("Tick returned %v after Stop, want the same virtual instant", lag)
		}
		if lag >= time.Second {
			t.Fatalf("Tick returned %v after Stop", lag)
		}
	})
}

func TestLoopTickTimesOutAfterD(t *testing.T) {
	const d = 20 * time.Millisecond
	onBothClocks(t, func(t *testing.T, c Clock) {
		var l Loop
		start := c.Now()
		for round := 1; round <= 3; round++ {
			if !l.Tick(c, d) {
				t.Fatalf("round %d: Tick = false without Stop", round)
			}
			got := c.Since(start)
			if _, virtual := c.(*Virtual); virtual && got != time.Duration(round)*d {
				t.Fatalf("round %d: %v elapsed, want exactly %v", round, got, time.Duration(round)*d)
			}
			if got < time.Duration(round)*d {
				t.Fatalf("round %d: %v elapsed, want at least %v", round, got, time.Duration(round)*d)
			}
		}
	})
}

// racingClock hands out waiters whose park times out and, before Wait
// returns, lets Stop land: the window where a timeout and a Stop cross.
type racingClock struct {
	Clock
	loop *Loop
}

func (c racingClock) NewWaiter() Waiter { return racingWaiter{c.Clock.NewWaiter(), c.loop} }

type racingWaiter struct {
	Waiter
	loop *Loop
}

func (w racingWaiter) Wait(d time.Duration) bool {
	woken := w.Waiter.Wait(d)
	if !woken {
		w.loop.Stop()
	}
	return woken
}

func TestLoopStopRacingTimeoutRunsNoFurtherRound(t *testing.T) {
	onBothClocks(t, func(t *testing.T, c Clock) {
		var l Loop
		start := c.Now()
		rounds := 0
		for l.Tick(racingClock{c, &l}, 5*time.Millisecond) {
			rounds++
		}
		if rounds != 0 {
			t.Fatalf("ran %d rounds after a Stop that crossed the timeout, want 0", rounds)
		}
		if _, virtual := c.(*Virtual); virtual && c.Since(start) != 5*time.Millisecond {
			t.Fatalf("%v elapsed, want the one park", c.Since(start))
		}
	})
}
