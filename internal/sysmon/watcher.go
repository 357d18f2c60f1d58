package sysmon

import (
	"sync"
	"time"

	"gospaces/internal/vclock"
)

// Watcher samples a machine's background load periodically and invokes a
// callback whenever the load's classification changes — the node-side
// instrumentation behind SNMP trap generation. Classification is supplied
// by the caller (typically the rule base's band function) so sysmon stays
// policy-free.
type Watcher struct {
	clock    vclock.Clock
	machine  *Machine
	interval time.Duration
	classify func(load float64) int
	onChange func(load float64)

	mu      sync.Mutex
	running bool
	loop    vclock.Loop
}

// NewWatcher returns a watcher; call Run on a clock process.
func NewWatcher(clock vclock.Clock, m *Machine, interval time.Duration,
	classify func(float64) int, onChange func(float64)) *Watcher {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Watcher{clock: clock, machine: m, interval: interval, classify: classify, onChange: onChange}
}

// Run samples until Stop. The first sample establishes the baseline
// class; only subsequent changes fire the callback.
func (w *Watcher) Run() {
	w.mu.Lock()
	if w.running {
		w.mu.Unlock()
		panic("sysmon: Watcher.Run called twice")
	}
	w.running = true
	w.mu.Unlock()

	last := w.classify(w.machine.BackgroundLoad())
	for w.loop.Tick(w.clock, w.interval) {
		load := w.machine.BackgroundLoad()
		if c := w.classify(load); c != last {
			last = c
			w.onChange(load)
		}
	}
}

// Stop terminates the watcher.
func (w *Watcher) Stop() { w.loop.Stop() }
