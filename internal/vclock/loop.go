package vclock

import (
	"sync"
	"time"
)

// Loop is the stop protocol of a periodic clock process, which runs
// `for l.Tick(clock, every) { round() }` while Stop, from any goroutine,
// wakes the park and ends the loop. The zero value is ready; a Loop is
// not reused after Stop.
type Loop struct {
	mu      sync.Mutex
	stopped bool
	parked  Waiter // non-nil while Tick is parked
}

// Tick parks the caller on clock for d, then reports whether to run
// another round: false once Stop has been called, before or during the
// park — also when Stop lands while the park is timing out. A d <= 0 does
// not park; Tick then only reports whether the loop is still running.
func (l *Loop) Tick(clock Clock, d time.Duration) bool {
	l.mu.Lock()
	if !l.stopped && d > 0 {
		w := clock.NewWaiter()
		l.parked = w
		l.mu.Unlock()
		w.Wait(d) // l.mu not deferred: a virtual-clock deadlock panics out of Wait
		l.mu.Lock()
		l.parked = nil
	}
	running := !l.stopped
	l.mu.Unlock()
	return running
}

// Stop ends the loop: a parked Tick returns false at once, and so does
// every later one. Safe to call more than once and before the first Tick.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopped = true
	w := l.parked
	l.mu.Unlock()
	if w != nil {
		w.Wake()
	}
}
