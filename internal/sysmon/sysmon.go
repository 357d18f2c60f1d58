// Package sysmon models the system state of a cluster node: its CPU
// utilization as the sum of load sources (background jobs, interactive
// users, the framework's own worker), a usage history trace, and the two
// synthetic load generators the paper uses in its adaptation experiments —
// load simulator 1 (traffic-shaped, 30–50 % CPU) and load simulator 2
// (100 % CPU). The SNMP agent on each node reads hrProcessorLoad from
// here, and the compute model converts task work into elapsed time scaled
// by node speed and background contention.
package sysmon

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gospaces/internal/vclock"
)

// WorkerSource is the reserved load-source key for the framework's own
// worker process; it is excluded from background-load computations so that
// cycle stealing does not count against the node's availability the way a
// local user's job does.
const WorkerSource = "worker"

// Sample is one point of a CPU usage trace.
type Sample struct {
	At    time.Time
	Usage float64 // percent, 0–100
}

// Machine models one cluster node.
type Machine struct {
	clock vclock.Clock
	name  string
	speed float64 // relative CPU speed; 1.0 = the paper's 800 MHz P-III

	mu      sync.Mutex
	sources map[string]srcEntry
	nextSrc int64
	hist    []Sample
}

// srcEntry is one load source: named sources (SetSource) use their name
// as both key and group; each Compute invocation gets a unique key within
// its group, so concurrent computations on one machine (a task plus a
// signal handler, say) never clobber each other.
type srcEntry struct {
	group string
	f     func(now time.Time) float64
}

// NewMachine returns a node with the given name and relative speed
// (1.0 = reference 800 MHz node; the paper's 300 MHz nodes are ~0.375).
func NewMachine(clock vclock.Clock, name string, speed float64) *Machine {
	if speed <= 0 {
		speed = 1
	}
	return &Machine{
		clock:   clock,
		name:    name,
		speed:   speed,
		sources: make(map[string]srcEntry),
	}
}

// Name returns the node name.
func (m *Machine) Name() string { return m.name }

// Speed returns the relative CPU speed.
func (m *Machine) Speed() float64 { return m.speed }

// SetSource installs (or replaces) a named load source: f returns the
// source's instantaneous CPU percentage at a given time.
func (m *Machine) SetSource(key string, f func(now time.Time) float64) {
	m.mu.Lock()
	m.sources[key] = srcEntry{group: key, f: f}
	m.mu.Unlock()
}

// SetConstSource installs a constant-percentage load source.
func (m *Machine) SetConstSource(key string, pct float64) {
	m.SetSource(key, func(time.Time) float64 { return pct })
}

// ClearSource removes a load source.
func (m *Machine) ClearSource(key string) {
	m.mu.Lock()
	delete(m.sources, key)
	m.mu.Unlock()
}

// Usage returns the node's current total CPU utilization (0–100).
func (m *Machine) Usage() float64 {
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sumLocked(now, true)
}

// BackgroundLoad returns utilization excluding the framework's own worker
// — the quantity that decides whether the node counts as idle.
func (m *Machine) BackgroundLoad() float64 {
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sumLocked(now, false)
}

func (m *Machine) sumLocked(now time.Time, includeWorker bool) float64 {
	total := 0.0
	for _, e := range m.sources {
		if !includeWorker && e.group == WorkerSource {
			continue
		}
		total += e.f(now)
	}
	return math.Min(100, math.Max(0, total))
}

// RecordSample appends the current usage to the node's history trace and
// returns it. The monitoring agent calls this on every poll; the resulting
// trace is what Figures 9(a), 10(a) and 11(a) plot.
func (m *Machine) RecordSample() Sample {
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Sample{At: now, Usage: m.sumLocked(now, true)}
	m.hist = append(m.hist, s)
	return s
}

// History returns a copy of the usage trace, time-ordered.
func (m *Machine) History() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.hist))
	copy(out, m.hist)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// PeakUsage returns the maximum recorded usage in [from, to].
func (m *Machine) PeakUsage(from, to time.Time) float64 {
	peak := 0.0
	for _, s := range m.History() {
		if s.At.Before(from) || s.At.After(to) {
			continue
		}
		if s.Usage > peak {
			peak = s.Usage
		}
	}
	return peak
}

// contentionFactor converts background load into a slowdown multiplier for
// the worker's compute: with bg% of the CPU consumed by other processes,
// the worker receives the remaining share. The factor is capped so a
// saturated node slows work down rather than freezing it (the OS scheduler
// still gives a starved process an occasional quantum).
func contentionFactor(bg float64) float64 {
	share := (100 - bg) / 100
	if share < 0.05 {
		share = 0.05
	}
	return 1 / share
}

// Compute models the framework worker executing `work` of CPU time
// (expressed as seconds on the reference 1.0-speed node) at the given CPU
// intensity (percent). It installs the worker load source for the
// duration, scales the elapsed time by node speed and by contention from
// background load, and sleeps that long on the node's clock.
func (m *Machine) Compute(work time.Duration, intensity float64) {
	m.ComputeAs(WorkerSource, work, intensity)
}

// ComputeAs models an arbitrary process (identified by source group)
// executing `work` of reference-node CPU time at the given intensity. The
// process contends with every load source outside its own group —
// including the framework's worker, which is how the intrusiveness
// experiments measure the slowdown cycle stealing inflicts on a local
// user's job. Concurrent computations are independent sources: each
// invocation installs and removes its own entry.
func (m *Machine) ComputeAs(group string, work time.Duration, intensity float64) {
	now := m.clock.Now()
	m.mu.Lock()
	other := 0.0
	for _, e := range m.sources {
		if e.group != group {
			other += e.f(now)
		}
	}
	if other > 100 {
		other = 100
	}
	m.nextSrc++
	key := fmt.Sprintf("%s#%d", group, m.nextSrc)
	m.sources[key] = srcEntry{group: group, f: func(time.Time) float64 { return intensity }}
	m.mu.Unlock()

	elapsed := time.Duration(float64(work) / m.speed * contentionFactor(other))
	m.clock.Sleep(elapsed)

	m.mu.Lock()
	delete(m.sources, key)
	m.mu.Unlock()
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("sysmon.Machine{%s speed=%.2f usage=%.0f%%}", m.name, m.speed, m.Usage())
}
