package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock. Goroutines participate by
// being spawned through Go (or bracketing themselves with Register and
// Unregister). Virtual time advances only when every registered process is
// blocked on the clock — in Sleep or in a Waiter — at which point the clock
// jumps to the earliest pending deadline and wakes the processes due then.
//
// If every process is blocked and no deadline is pending, the system can
// never make progress; Virtual panics with a diagnostic rather than hanging,
// because in this codebase that always indicates a protocol bug (for
// example, a worker blocked forever on an empty space with no producer).
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	procs   int // registered processes
	blocked int // of those, currently parked on the clock
	timers  timerHeap
	seq     int64 // tiebreak for deterministic ordering of equal deadlines
	wg      sync.WaitGroup
	labels  map[int64]string // parked process labels for deadlock diagnostics
	nextID  int64
}

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start, labels: make(map[int64]string)}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Go spawns fn as a registered process. Run waits for all processes spawned
// this way.
func (v *Virtual) Go(fn func()) {
	v.register()
	go func() {
		defer v.unregister()
		fn()
	}()
}

// Run registers the root process, executes it in the calling goroutine,
// and then blocks until every process spawned with Go has finished. It is
// the entry point used by the experiment harness. Running root inline
// means a deadlock panic triggered by the root process propagates to the
// caller, where tests can recover it.
func (v *Virtual) Run(root func()) {
	v.register()
	func() {
		defer v.unregister()
		root()
	}()
	v.wg.Wait()
}

func (v *Virtual) register() {
	v.mu.Lock()
	v.procs++
	v.mu.Unlock()
	v.wg.Add(1)
}

func (v *Virtual) unregister() {
	defer v.wg.Done()
	v.mu.Lock()
	v.procs--
	v.maybeAdvanceLocked() // on deadlock: unlocks, then panics
	v.mu.Unlock()
}

// Sleep implements Clock. The caller must be a registered process.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := v.newWaiter("sleep")
	w.wait(d, true)
}

// After implements Clock. The returned channel fires when virtual time
// reaches now+d. Note that a process selecting on this channel without also
// being parked in a Waiter is invisible to the scheduler; inside framework
// code prefer Sleep or NewWaiter.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	deadline := v.now.Add(d)
	v.pushTimerLocked(deadline, func(t time.Time) {
		ch <- t
	})
	v.mu.Unlock()
	return ch
}

// NewWaiter implements Clock.
func (v *Virtual) NewWaiter() Waiter { return v.newWaiter("waiter") }

// NewLabeledWaiter returns a Waiter whose park site is annotated with label
// in deadlock diagnostics.
func (v *Virtual) NewLabeledWaiter(label string) Waiter { return v.newWaiter(label) }

func (v *Virtual) newWaiter(label string) *virtualWaiter {
	v.mu.Lock()
	id := v.nextID
	v.nextID++
	v.mu.Unlock()
	return &virtualWaiter{v: v, ch: make(chan bool, 1), label: label, id: id}
}

type virtualWaiter struct {
	v     *Virtual
	ch    chan bool // value: woken (true) vs timed out (false)
	label string
	id    int64
	// Guarded by v.mu. waits counts the parks that ended, so the timer of
	// an earlier one fires on nothing; early marks a Wake that came before
	// the next Wait parked.
	waits uint64
	early bool
}

// Wait implements Waiter.
func (w *virtualWaiter) Wait(timeout time.Duration) bool {
	return w.wait(timeout, false)
}

// wait parks the process. If isSleep, a timeout firing is the normal path
// and reports true.
func (w *virtualWaiter) wait(timeout time.Duration, isSleep bool) bool {
	v := w.v
	v.mu.Lock()
	if w.early {
		// Woken before we parked.
		w.early = false
		v.mu.Unlock()
		return true
	}
	if timeout > 0 {
		deadline := v.now.Add(timeout)
		n := w.waits
		v.pushTimerLocked(deadline, func(time.Time) {
			if w.waits == n {
				w.wakeLocked(false)
			}
		})
	}
	v.blocked++
	v.labels[w.id] = w.label
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	woken := <-w.ch
	if isSleep {
		return true
	}
	return woken
}

// Wake implements Waiter.
func (w *virtualWaiter) Wake() {
	v := w.v
	v.mu.Lock()
	w.wakeLocked(true)
	v.mu.Unlock()
}

// wakeLocked unparks the waiter, or marks the Wait to come as woken when
// none is parked; caller holds v.mu. The blocked count is decremented
// under the lock, before the parked goroutine resumes, so the scheduler
// never sees an in-flight wakeup as a deadlock.
func (w *virtualWaiter) wakeLocked(woken bool) {
	if _, parked := w.v.labels[w.id]; !parked {
		w.early = true
		return
	}
	w.v.blocked--
	delete(w.v.labels, w.id)
	w.waits++
	w.ch <- woken
}

// timer is a pending virtual-time event.
type timer struct {
	deadline time.Time
	seq      int64
	fire     func(time.Time)
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

func (v *Virtual) pushTimerLocked(deadline time.Time, fire func(time.Time)) {
	v.seq++
	heap.Push(&v.timers, &timer{deadline: deadline, seq: v.seq, fire: fire})
}

// maybeAdvanceLocked advances virtual time if every registered process is
// blocked. Caller holds v.mu.
func (v *Virtual) maybeAdvanceLocked() {
	for v.procs > 0 && v.blocked == v.procs {
		if v.timers.Len() == 0 {
			// Release the lock before panicking: deferred unregisters in
			// unwinding goroutines re-acquire it and must not wedge.
			msg := "vclock: deadlock — all processes blocked with no pending timers; parked at: " + v.parkSitesLocked()
			v.mu.Unlock()
			panic(msg)
		}
		t := heap.Pop(&v.timers).(*timer)
		if t.deadline.After(v.now) {
			v.now = t.deadline
		}
		t.fire(v.now)
		// Fire every timer sharing this deadline so simultaneous events
		// wake together (deterministically ordered by seq).
		for v.timers.Len() > 0 && v.timers[0].deadline.Equal(t.deadline) {
			heap.Pop(&v.timers).(*timer).fire(v.now)
		}
	}
}

func (v *Virtual) parkSitesLocked() string {
	sites := make([]string, 0, len(v.labels))
	for _, l := range v.labels {
		sites = append(sites, l)
	}
	sort.Strings(sites)
	if len(sites) == 0 {
		return "(none)"
	}
	return strings.Join(sites, ", ")
}

// Stats returns a snapshot of scheduler state, for tests and diagnostics.
func (v *Virtual) Stats() (procs, blocked, pendingTimers int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.procs, v.blocked, v.timers.Len()
}

// String describes the clock state.
func (v *Virtual) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return fmt.Sprintf("vclock.Virtual{now=%s procs=%d blocked=%d timers=%d}",
		v.now.Format(time.RFC3339Nano), v.procs, v.blocked, v.timers.Len())
}
