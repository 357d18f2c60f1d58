package rebalance

import (
	"sort"
	"time"
)

// Sample is one shard's load reading at a controller tick. Ops is
// cumulative (the served-operation counter, monotone); the controller
// differentiates it against the previous tick itself.
type Sample struct {
	ID  string
	Ops uint64
}

// Action is a reshard decision the controller's driver executes.
type Action struct {
	Kind ActionKind
	// ID is the shard to split, or the split-born shard to merge back
	// into its parent.
	ID string
}

// ActionKind discriminates Action.
type ActionKind int

const (
	ActionSplit ActionKind = iota
	ActionMerge
)

func (k ActionKind) String() string {
	if k == ActionMerge {
		return "merge"
	}
	return "split"
}

// alpha is the op-rate EWMA's smoothing factor.
const alpha = 0.3

// ControllerConfig tunes the rebalancer's decision loop. The zero value
// of each field selects the documented default.
type ControllerConfig struct {
	// SplitThreshold is the op-rate EWMA (ops/sec) above which a shard
	// is considered hot (default 500).
	SplitThreshold float64
	// MergeThreshold is the op-rate EWMA below which a split-born shard
	// is considered cold enough to merge back (default 10). Must be well
	// under SplitThreshold or split/merge could flap on a single load
	// level; Controller enforces a 2× gap.
	MergeThreshold float64
	// Mergeable reports whether a shard may be merged away — the driver
	// restricts merges to split-born children it can still pair with
	// their parent. Nil means nothing is mergeable.
	Mergeable func(id string) bool
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.SplitThreshold <= 0 {
		c.SplitThreshold = 500
	}
	if c.MergeThreshold <= 0 {
		c.MergeThreshold = 10
	}
	if c.MergeThreshold > c.SplitThreshold/2 {
		c.MergeThreshold = c.SplitThreshold / 2
	}
	return c
}

// Controller is the load-driven rebalancer's brain: pure decision state,
// no goroutines, no clocks of its own. The driver feeds it Samples at its
// own cadence and executes whatever Actions come back, which keeps every
// decision unit-testable and deterministic under the virtual clock.
type Controller struct {
	cfg ControllerConfig
	// The pacing, the same for every deployment (only tests change it):
	// a shard must breach a threshold for hysteresis consecutive ticks
	// (3) before the controller acts, so one noisy tick never reshards;
	// after any action it pauses for cooldown (30 s), so a reshard has
	// time to change the load picture before it is judged; splits never
	// grow the ring past maxShards (8).
	hysteresis int
	cooldown   time.Duration
	maxShards  int

	last   time.Time
	cooled time.Time
	stats  map[string]*shardStat
}

type shardStat struct {
	prevOps  uint64
	havePrev bool
	ewma     float64
	hot      int // consecutive ticks above SplitThreshold
	cold     int // consecutive ticks below MergeThreshold
}

// NewController returns a controller with cfg's defaults filled in.
func NewController(cfg ControllerConfig) *Controller {
	return &Controller{cfg: cfg.withDefaults(), hysteresis: 3, cooldown: 30 * time.Second,
		maxShards: 8, stats: make(map[string]*shardStat)}
}

// Rates returns the current per-shard op-rate EWMAs (ops/sec) — the
// numbers /healthz surfaces so operators can see what the rebalancer
// sees.
func (c *Controller) Rates() map[string]float64 {
	out := make(map[string]float64, len(c.stats))
	for id, st := range c.stats {
		out[id] = st.ewma
	}
	return out
}

// Advance feeds one tick of samples at time now and returns at most one
// action. Splits take priority over merges (relieving a hot shard beats
// tidying a cold one), the hottest eligible shard splits first, and any
// emitted action starts the cooldown.
func (c *Controller) Advance(now time.Time, samples []Sample) []Action {
	dt := now.Sub(c.last).Seconds()
	first := c.last.IsZero()
	c.last = now

	seen := make(map[string]bool, len(samples))
	for _, s := range samples {
		seen[s.ID] = true
		st := c.stats[s.ID]
		if st == nil {
			st = &shardStat{}
			c.stats[s.ID] = st
		}
		if !st.havePrev || first || dt <= 0 || s.Ops < st.prevOps {
			// First sighting, clock oddity, or a counter reset (the shard
			// failed over onto a fresh space): re-baseline, don't let the
			// uint64 difference wrap into an absurd rate.
			st.prevOps, st.havePrev = s.Ops, true
			continue
		}
		rate := float64(s.Ops-st.prevOps) / dt
		st.prevOps = s.Ops
		st.ewma = alpha*rate + (1-alpha)*st.ewma
		if st.ewma > c.cfg.SplitThreshold {
			st.hot++
		} else {
			st.hot = 0
		}
		if st.ewma < c.cfg.MergeThreshold {
			st.cold++
		} else {
			st.cold = 0
		}
	}
	for id := range c.stats {
		if !seen[id] {
			delete(c.stats, id) // merged away or removed
		}
	}

	if !c.cooled.IsZero() && now.Sub(c.cooled) < c.cooldown {
		return nil
	}

	// Deterministic iteration: hottest first, ID as tie-break.
	ids := make([]string, 0, len(c.stats))
	for id := range c.stats {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := c.stats[ids[i]], c.stats[ids[j]]
		if a.ewma != b.ewma {
			return a.ewma > b.ewma
		}
		return ids[i] < ids[j]
	})

	if len(c.stats) < c.maxShards {
		for _, id := range ids {
			if c.stats[id].hot >= c.hysteresis {
				c.acted(now, id)
				return []Action{{Kind: ActionSplit, ID: id}}
			}
		}
	}
	if c.cfg.Mergeable != nil && len(c.stats) > 1 {
		for i := len(ids) - 1; i >= 0; i-- { // coldest first
			id := ids[i]
			if c.stats[id].cold >= c.hysteresis && c.cfg.Mergeable(id) {
				c.acted(now, id)
				return []Action{{Kind: ActionMerge, ID: id}}
			}
		}
	}
	return nil
}

// acted starts the cooldown and resets the acted-on shard's streaks so
// the same breach cannot double-fire while the reshard is in flight.
func (c *Controller) acted(now time.Time, id string) {
	c.cooled = now
	if st := c.stats[id]; st != nil {
		st.hot, st.cold = 0, 0
	}
}
