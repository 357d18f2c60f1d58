package transport

import (
	"sync"
	"time"

	"gospaces/internal/vclock"
)

// ServiceGate models the CPU of a single-threaded server as a FIFO queue
// in clock time: each admitted operation occupies the server for cost, and
// an operation arriving while the server is busy waits for everything
// admitted before it. The waiting is charged to the *caller's* clock —
// both transport bindings run handlers on (or proxied back to) the calling
// process — so under the virtual clock a saturated gate shows up as
// queueing delay exactly where a saturated JavaSpaces server would: in the
// client's latency.
//
// This is what makes shard scaling observable in simulation: K shards give
// K independent gates, dividing the arrival rate each queue sees.
type ServiceGate struct {
	clock vclock.Clock
	cost  time.Duration

	mu        sync.Mutex
	busyUntil time.Time
}

// NewServiceGate returns a gate on clock charging cost per operation. A
// cost <= 0 yields a no-op gate.
func NewServiceGate(clock vclock.Clock, cost time.Duration) *ServiceGate {
	return &ServiceGate{clock: clock, cost: cost}
}

// AdmitBy reserves the next service slot and sleeps until the operation's
// service completes (queue wait + service time). When that slot would not
// complete by deadline the op is refused without reserving it, so queued
// work the client will already have abandoned is never executed; a zero
// deadline admits unconditionally. The lock is held only to compute the
// slot, never across the sleep, so gated callers on the virtual clock all
// park on timers and time can advance. Reports whether the op was admitted
// (and, if so, served).
func (g *ServiceGate) AdmitBy(deadline time.Time) bool {
	if g == nil || g.cost <= 0 {
		return true
	}
	g.mu.Lock()
	now := g.clock.Now()
	start := now
	if g.busyUntil.After(start) {
		start = g.busyUntil
	}
	end := start.Add(g.cost)
	if !deadline.IsZero() && end.After(deadline) {
		g.mu.Unlock()
		return false
	}
	g.busyUntil = end
	g.mu.Unlock()
	if wait := end.Sub(now); wait > 0 {
		g.clock.Sleep(wait)
	}
	return true
}
