// Package vclock provides a clock abstraction with two implementations: a
// real clock backed by package time, and a deterministic discrete-event
// virtual clock used to run large simulated-cluster experiments quickly.
//
// The virtual clock tracks a set of registered goroutines ("processes").
// Time advances only when every registered process is blocked on the clock
// (sleeping, waiting on a timer, or parked in WaitOn). This makes runs that
// involve tens of simulated nodes deterministic and independent of host
// speed, which is what lets the experiment harness reproduce the paper's
// 13-node cluster on a laptop.
package vclock

import "time"

// Clock is the time source used throughout the framework. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling process for d. On the virtual clock the
	// calling goroutine must be registered (via Go or Register).
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// NewWaiter returns a Waiter bound to this clock. Waiters are the
	// clock-aware replacement for bare condition variables: a process
	// parked in Waiter.Wait counts as blocked for virtual-time advance.
	NewWaiter() Waiter
}

// Waiter parks the calling process until another process calls Wake, or
// until a timeout elapses on the clock. A Waiter may be waited on again
// once Wait has returned, by an owner that pairs each Wake with one Wait:
// a Wake that lands after the Wait it was meant for has ended (timed out,
// or woken already) wakes the next Wait at once.
type Waiter interface {
	// Wait blocks until Wake is called or timeout elapses. timeout <= 0
	// means wait forever. It reports whether the waiter was woken (true)
	// as opposed to timing out (false).
	Wait(timeout time.Duration) bool
	// Wake unparks the waiter. It is safe to call concurrently with Wait,
	// and more than once before Wait: calls after the first are no-ops.
	Wake()
}

type realWaiter struct {
	ch chan struct{}
}

func (w *realWaiter) Wait(timeout time.Duration) bool {
	if timeout <= 0 {
		<-w.ch
		return true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return true
	case <-t.C:
		return false
	}
}

func (w *realWaiter) Wake() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// NewWaiter implements Clock.
func (*Real) NewWaiter() Waiter { return &realWaiter{ch: make(chan struct{}, 1)} }

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (*Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (*Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (*Real) Since(t time.Time) time.Duration { return time.Since(t) }
