package rebalance

import (
	"testing"
	"time"
)

// tickSeq drives a controller with one-second ticks and per-shard op
// rates expressed in ops/sec (converted to cumulative counters).
type tickSeq struct {
	c    *Controller
	now  time.Time
	cum  map[string]uint64
	last []Action
}

func newTickSeq(c *Controller) *tickSeq {
	return &tickSeq{
		c:   c,
		now: time.Unix(1000, 0),
		cum: make(map[string]uint64),
	}
}

// paced is NewController with the controller's pacing set to hyst ticks
// of hysteresis and a cool cooldown.
func paced(cfg ControllerConfig, hyst int, cool time.Duration) *Controller {
	c := NewController(cfg)
	c.hysteresis, c.cooldown = hyst, cool
	return c
}

// tick advances one second with the given per-shard rates and entry
// counts, returning any actions.
func (ts *tickSeq) tick(rates map[string]uint64) []Action {
	ts.now = ts.now.Add(time.Second)
	var samples []Sample
	for id, r := range rates {
		ts.cum[id] += r
		samples = append(samples, Sample{ID: id, Ops: ts.cum[id]})
	}
	ts.last = ts.c.Advance(ts.now, samples)
	return ts.last
}

func TestControllerSplitsAfterHysteresis(t *testing.T) {
	ts := newTickSeq(paced(ControllerConfig{SplitThreshold: 100}, 3, 5*time.Second))
	rates := map[string]uint64{"hot": 1000, "cool": 10}
	var acted []Action
	ticks := 0
	for ; ticks < 10 && len(acted) == 0; ticks++ {
		acted = ts.tick(rates)
	}
	if len(acted) != 1 || acted[0].Kind != ActionSplit || acted[0].ID != "hot" {
		t.Fatalf("actions = %+v after %d ticks, want one split of hot", acted, ticks)
	}
	// Tick 1 is the baseline, the EWMA crosses on tick 2, hysteresis 3
	// means the breach must hold ticks 2,3,4.
	if ticks != 4 {
		t.Fatalf("split fired on tick %d, want 4 (baseline + 3-tick hysteresis)", ticks)
	}
	// Cooldown: continued heat emits nothing while the 5s pause holds
	// (ticks land at +1s..+4s after the action).
	for i := 0; i < 4; i++ {
		if a := ts.tick(rates); len(a) != 0 {
			t.Fatalf("action %+v during cooldown tick %d", a, i)
		}
	}
	// Past cooldown the still-hot shard re-splits once its streak rebuilds.
	var again []Action
	for i := 0; i < 10 && len(again) == 0; i++ {
		again = ts.tick(rates)
	}
	if len(again) != 1 || again[0].Kind != ActionSplit {
		t.Fatalf("no re-split after cooldown: %+v", again)
	}
}

func TestControllerMaxShardsCapsSplits(t *testing.T) {
	ts := newTickSeq(paced(ControllerConfig{SplitThreshold: 100}, 1, time.Second))
	ts.c.maxShards = 2
	rates := map[string]uint64{"a": 1000, "b": 1000}
	for i := 0; i < 10; i++ {
		if a := ts.tick(rates); len(a) != 0 {
			t.Fatalf("split emitted at the maxShards cap: %+v", a)
		}
	}
}

func TestControllerMergesOnlyMergeable(t *testing.T) {
	allowed := map[string]bool{"child": true}
	ts := newTickSeq(paced(ControllerConfig{
		SplitThreshold: 1000, MergeThreshold: 50,
		Mergeable: func(id string) bool { return allowed[id] },
	}, 2, time.Second))
	// Both shards idle; only the split-born child may merge.
	rates := map[string]uint64{"parent": 0, "child": 0}
	var acted []Action
	for i := 0; i < 10 && len(acted) == 0; i++ {
		acted = ts.tick(rates)
	}
	if len(acted) != 1 || acted[0].Kind != ActionMerge || acted[0].ID != "child" {
		t.Fatalf("actions = %+v, want one merge of child", acted)
	}
}

func TestControllerNeverMergesLastShard(t *testing.T) {
	ts := newTickSeq(paced(ControllerConfig{
		MergeThreshold: 50,
		Mergeable:      func(string) bool { return true },
	}, 1, time.Second))
	for i := 0; i < 10; i++ {
		if a := ts.tick(map[string]uint64{"only": 0}); len(a) != 0 {
			t.Fatalf("merged the last shard: %+v", a)
		}
	}
}

// TestControllerCounterResetGuard: a failover resets the serving space's
// cumulative counters to zero; the difference must re-baseline, not wrap
// uint64 into an absurd rate that triggers a spurious split.
func TestControllerCounterResetGuard(t *testing.T) {
	c := paced(ControllerConfig{SplitThreshold: 100}, 1, time.Second)
	now := time.Unix(1000, 0)
	c.Advance(now, []Sample{{ID: "s", Ops: 100000}})
	now = now.Add(time.Second)
	c.Advance(now, []Sample{{ID: "s", Ops: 100010}})
	// Failover: counter restarts near zero.
	now = now.Add(time.Second)
	if a := c.Advance(now, []Sample{{ID: "s", Ops: 5}}); len(a) != 0 {
		t.Fatalf("counter reset produced action %+v", a)
	}
	if r := c.Rates()["s"]; r > 100 {
		t.Fatalf("rate after counter reset = %v, want re-baselined small", r)
	}
	// The rebaselined counter differentiates normally afterwards.
	now = now.Add(time.Second)
	c.Advance(now, []Sample{{ID: "s", Ops: 25}})
	if r := c.Rates()["s"]; r <= 0 || r > 20 {
		t.Fatalf("post-reset rate = %v, want ~6 (20 ops smoothed)", r)
	}
}

// TestControllerNoFlap: a load level between the merge and split
// thresholds must never produce any action, however long it holds.
func TestControllerNoFlap(t *testing.T) {
	ts := newTickSeq(paced(ControllerConfig{
		SplitThreshold: 1000, MergeThreshold: 100,
		Mergeable: func(string) bool { return true },
	}, 2, time.Second))
	rates := map[string]uint64{"a": 500, "b": 500}
	for i := 0; i < 30; i++ {
		if a := ts.tick(rates); len(a) != 0 {
			t.Fatalf("mid-band load produced %+v on tick %d", a, i)
		}
	}
}

func TestControllerDropsVanishedShards(t *testing.T) {
	c := NewController(ControllerConfig{})
	now := time.Unix(1000, 0)
	c.Advance(now, []Sample{{ID: "a", Ops: 1}, {ID: "b", Ops: 1}})
	now = now.Add(time.Second)
	c.Advance(now, []Sample{{ID: "a", Ops: 2}})
	rates := c.Rates()
	if _, ok := rates["b"]; ok {
		t.Fatalf("merged-away shard still tracked: %v", rates)
	}
}
