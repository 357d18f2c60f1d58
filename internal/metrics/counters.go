package metrics

import "sync"

// Counters accumulates named event counts; safe for concurrent use. The
// fault-injection layer counts every injected event here (drops, delays,
// duplications, crashes, partitioned calls), and chaos tests assert against
// the snapshots.
type Counters struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]uint64)} }

// Inc adds 1 to key.
func (c *Counters) Inc(key string) { c.AddN(key, 1) }

// AddN adds n to key.
func (c *Counters) AddN(key string, n uint64) {
	c.mu.Lock()
	c.m[key] += n
	c.mu.Unlock()
}

// Get returns the current count under key (0 if never incremented).
func (c *Counters) Get(key string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// Snapshot returns a copy of every non-zero counter.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.m))
	for k, n := range c.m {
		out[k] = n
	}
	return out
}
