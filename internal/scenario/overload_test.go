package scenario

import (
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
)

// TestOverloadBurstShedsWithoutLoss: a hand-written manifest drives 8×
// read generators per worker into a small admission bound for two
// seconds. The protection plane must visibly engage — rejections or
// sheds, and a recorded brownout transition — while the run's exactness
// invariants still hold: every worker result survives the storm, none
// duplicated.
func TestOverloadBurstShedsWithoutLoss(t *testing.T) {
	m := Manifest{
		Seed:    42,
		Workers: 4,
		Shards:  2,
		TxnTTL:  8 * time.Second,
		// 2ms of modeled CPU per op: the burst's generators queue at the
		// shard gates and hold admission slots, which is what saturates
		// MaxInflight and arms the brownout controller.
		OpCost:      2 * time.Millisecond,
		MaxInflight: 10,
		App: AppSpec{
			Name:   AppMonteCarlo,
			Tasks:  16,
			Work:   2500 * time.Millisecond, // exec = 800/100×2.5s/4 ≈ 5s per task pair wave
			Spread: true,
		},
		Faults: faults.PlanSpec{Seed: 42},
		Events: []Event{
			{At: 2 * time.Second, Kind: OverloadBurst, Factor: 8, Window: 2 * time.Second},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := Run(m)
	if rep.Failed() {
		t.Fatalf("overload burst violated invariants: %v", rep.Violations)
	}
	ov := rep.Result.Counters
	pressure := ov[metrics.CounterAdmitRejected] + ov[metrics.CounterShedLow] + ov[metrics.CounterShedNormal]
	if pressure == 0 {
		t.Fatalf("burst left no admission trace (rejected/shed all zero): %v", ov)
	}
	browned := false
	for _, ev := range rep.Timeline {
		if ev.Kind == obs.EventBrownout {
			browned = true
			break
		}
	}
	if !browned {
		t.Error("no brownout transition reached the flight recorder")
	}
}
