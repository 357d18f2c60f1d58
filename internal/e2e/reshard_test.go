package e2e

import (
	"fmt"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/metrics"
	"gospaces/internal/shardhost"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// The elastic resharding acceptance scenarios: a hot shard splits while
// the job keeps running — snapshot fork, live journal tail, epoch-fenced
// cutover — and a cold split-born shard merges back, with zero lost
// entries in either direction and none served twice: the master collects
// with no dedup of its own, so an entry two ring members could both hand
// out would be aggregated twice.

// TestReshardManualSplitAndMergeMidJob drives the split and merge hooks
// directly while a job is in flight: split shard 0 mid-run, verify the
// topology advanced and entries moved, merge the child back, and require
// an exact result count at the end.
func TestReshardManualSplitAndMergeMidJob(t *testing.T) {
	jc := failoverJobConfig()
	var rep shardhost.SplitReport
	var splitErr, mergeErr error
	script := func(f *core.Framework) {
		f.Clock.Sleep(2 * time.Second)
		rep, splitErr = f.Host.Split(ring0(f))
		if splitErr != nil {
			return
		}
		// Let the split-born shard serve for a while, then fold it back.
		f.Clock.Sleep(4 * time.Second)
		mergeErr = f.Host.Merge(rep.Child)
	}
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:  1,
			Elastic: true,
			TxnTTL:  8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, script)

	if splitErr != nil {
		t.Fatalf("split: %v", splitErr)
	}
	if mergeErr != nil {
		t.Fatalf("merge: %v", mergeErr)
	}
	assertExactResults(t, job, jc)
	// Epoch 1 seeds the elastic topology, 2 is the split, 3 the merge.
	if e := fw.Host.TopologyEpoch(); e != 3 {
		t.Fatalf("topology epoch = %d, want 3", e)
	}
	if rep.Parent != ring0(fw) || rep.Child == "" {
		t.Fatalf("split report %+v", rep)
	}
	if got := res.Counters[metrics.CounterReshardSplits]; got != 1 {
		t.Fatalf("splits = %d, want 1", got)
	}
	if got := res.Counters[metrics.CounterReshardMerges]; got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}
	if res.Counters[metrics.CounterReshardMigrated] == 0 {
		t.Fatal("no entries migrated across the split")
	}
	if len(fw.Host.SplitBorn()) != 0 {
		t.Fatalf("split-born shards still live after merge: %v", fw.Host.SplitBorn())
	}
	if err := fw.Host.Err(); err != nil {
		t.Fatalf("reshard error: %v", err)
	}
}

// TestChaosReshardAutoSplitUnderSkew runs the load-driven rebalancer
// against a deliberately skewed deployment: one shard, ShardSpread tasks
// (so the whole bag of keyed entries lands on that shard), and a split
// threshold well under the job's op rate. The controller must observe
// the hot EWMA, split the shard mid-job exactly once (the controller's
// cooldown forbids a second action), and the job must finish exactly.
func TestChaosReshardAutoSplitUnderSkew(t *testing.T) {
	jc := failoverJobConfig()
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:          1,
			AutoShard:       true,
			SplitThreshold:  2, // ops/sec — far below the job's sustained rate
			ReshardInterval: 500 * time.Millisecond,
			TxnTTL:          8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, nil)

	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReshardSplits]; got != 1 {
		t.Fatalf("automatic splits = %d, want exactly 1", got)
	}
	if got := res.Counters[metrics.CounterReshardMerges]; got != 0 {
		t.Fatalf("merges = %d during cooldown, want 0", got)
	}
	if e := fw.Host.TopologyEpoch(); e != 2 {
		t.Fatalf("topology epoch = %d, want 2 (seed + one split)", e)
	}
	if born := fw.Host.SplitBorn(); len(born) != 1 {
		t.Fatalf("split-born shards = %v, want exactly one", born)
	}
	if res.Counters[metrics.CounterReshardMigrated] == 0 {
		t.Fatal("the automatic split migrated nothing")
	}
	if err := fw.Host.Err(); err != nil {
		t.Fatalf("reshard error: %v", err)
	}
}

// TestChaosReshardKillSourcePrimaryMidSplit kills the source shard's
// primary while a split is settling — workers hold task entries under 3s
// transactions at that point, so the eviction sweep is still waiting
// them out when the space dies under it. The split is past its commit
// point and must run to completion anyway: the hot standby promotes, the
// lame-duck sweep re-arms against the promoted node, and the job ends
// with zero lost results.
func TestChaosReshardKillSourcePrimaryMidSplit(t *testing.T) {
	jc := failoverJobConfig()
	var rep shardhost.SplitReport
	var splitErr, killErr error
	script := func(f *core.Framework) {
		f.Clock.Sleep(2 * time.Second)
		g := vclock.NewGroup(f.Clock)
		g.Go(func() { rep, splitErr = f.Host.Split(ring0(f)) })
		// Land the kill inside the split, after the fork has seeded the
		// child and while the settle sweep waits on workers' locks.
		f.Clock.Sleep(300 * time.Millisecond)
		killErr = f.Host.KillPrimary(0)
		g.Wait()
	}
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:   1,
			Replicas: 1,
			Elastic:  true,
			TxnTTL:   8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, script)

	if killErr != nil {
		t.Fatalf("kill: %v", killErr)
	}
	if splitErr != nil {
		t.Fatalf("split across a source failover: %v", splitErr)
	}
	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReplPromotions]; got != 1 {
		t.Fatalf("promotions = %d, want exactly 1", got)
	}
	if e := fw.Host.Epoch(0); e != 2 {
		t.Fatalf("source shard epoch = %d, want 2 (one promotion)", e)
	}
	if e := fw.Host.TopologyEpoch(); e != 2 {
		t.Fatalf("topology epoch = %d, want 2 (seed + split)", e)
	}
	if got := res.Counters[metrics.CounterReshardSplits]; got != 1 {
		t.Fatalf("splits = %d, want 1", got)
	}
	if born := fw.Host.SplitBorn(); len(born) != 1 || born[0] != rep.Child {
		t.Fatalf("split-born shards = %v, want [%s]", born, rep.Child)
	}
	// A settle interrupted by the kill records an error by design — the
	// protocol's commit point is the reason the split still finished.
	if err := fw.Host.Err(); err != nil {
		t.Logf("reshard recovered from: %v", err)
	}
}

// TestChaosReshardKillSourcePrimaryMidMerge is the merge's twin of the
// test above: the split-born child — the merge's source — loses its
// primary while the merge is settling. The merge is past its commit point
// (the parent already holds the only copy of what was evicted), so the
// child's standby promotes, the migration re-arms against it, and the
// child's arc still folds back into the parent with zero lost results.
func TestChaosReshardKillSourcePrimaryMidMerge(t *testing.T) {
	jc := failoverJobConfig()
	var rep shardhost.SplitReport
	var splitErr, mergeErr, killErr error
	script := func(f *core.Framework) {
		f.Clock.Sleep(2 * time.Second)
		rep, splitErr = f.Host.Split(ring0(f))
		if splitErr != nil {
			return
		}
		f.Clock.Sleep(3 * time.Second)
		idx, ok := f.Host.ShardIndex(rep.Child)
		if !ok {
			killErr = fmt.Errorf("no shard index for split-born %q", rep.Child)
			return
		}
		g := vclock.NewGroup(f.Clock)
		g.Go(func() { mergeErr = f.Host.Merge(rep.Child) })
		f.Clock.Sleep(300 * time.Millisecond)
		killErr = f.Host.KillPrimary(idx)
		g.Wait()
	}
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:   1,
			Replicas: 1,
			Elastic:  true,
			TxnTTL:   8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, script)

	if splitErr != nil {
		t.Fatalf("split: %v", splitErr)
	}
	if killErr != nil {
		t.Fatalf("kill: %v", killErr)
	}
	if mergeErr != nil {
		t.Fatalf("merge across a source failover: %v", mergeErr)
	}
	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReplPromotions]; got != 1 {
		t.Fatalf("promotions = %d, want exactly 1", got)
	}
	if got := res.Counters[metrics.CounterReshardSplits]; got != 1 {
		t.Fatalf("splits = %d, want 1", got)
	}
	if got := res.Counters[metrics.CounterReshardMerges]; got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}
	if e := fw.Host.TopologyEpoch(); e != 3 {
		t.Fatalf("topology epoch = %d, want 3 (seed + split + merge)", e)
	}
	if born := fw.Host.SplitBorn(); len(born) != 0 {
		t.Fatalf("split-born shards still live after merge: %v", born)
	}
	if err := fw.Host.Err(); err != nil {
		t.Logf("reshard recovered from: %v", err)
	}
}

// TestChaosReshardSplitBornCrashRestart crash-restarts a durable
// split-born shard after its cutover: the in-memory space is dropped and
// the child recovers from the WAL its migration applier populated. The
// recovered shard rejoins the ring under the same address at the same
// topology and the job completes exactly.
func TestChaosReshardSplitBornCrashRestart(t *testing.T) {
	jc := failoverJobConfig()
	var rep shardhost.SplitReport
	var info space.RecoveryInfo
	var splitErr, restartErr error
	script := func(f *core.Framework) {
		f.Clock.Sleep(2 * time.Second)
		rep, splitErr = f.Host.Split(ring0(f))
		if splitErr != nil {
			return
		}
		// Past the lame-duck drain: the child now serves its arc alone.
		f.Clock.Sleep(2 * time.Second)
		idx, ok := f.Host.ShardIndex(rep.Child)
		if !ok {
			restartErr = fmt.Errorf("no shard index for split-born %q", rep.Child)
			return
		}
		info, restartErr = f.Host.Restart(idx)
	}
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:  1,
			Elastic: true,
			DataDir: t.TempDir(),
			TxnTTL:  8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, script)

	if splitErr != nil {
		t.Fatalf("split: %v", splitErr)
	}
	if restartErr != nil {
		t.Fatalf("restart split-born shard: %v", restartErr)
	}
	assertExactResults(t, job, jc)
	if info.Restored == 0 {
		t.Fatal("the split-born shard recovered nothing from its WAL; the migration was never journaled")
	}
	if e := fw.Host.TopologyEpoch(); e != 2 {
		t.Fatalf("topology epoch = %d, want 2 (a restart must not move the ring)", e)
	}
	if got := res.Counters[metrics.CounterReshardSplits]; got != 1 {
		t.Fatalf("splits = %d, want 1", got)
	}
}

// shardTakes sums successful takes across every shard the framework
// hosts. During the execution phase (the master plans first, collects
// after, per the paper's structure) every take is a worker consuming a
// task, so the delta over a window is task throughput.
func shardTakes(f *core.Framework) uint64 {
	var n uint64
	for _, l := range f.Host.Shards() {
		n += l.TS.Stats().Takes
	}
	return n
}

// BenchmarkReshardSplit measures the two numbers the elastic subsystem
// exists for, on the virtual clock: the split blackout (the master's
// cutover span plus one WatchInterval of worker ring convergence — the
// window in which a not-yet-converged router can still miss) and the
// post-split throughput gain on a skewed workload. Model.SpaceOp models a
// saturated shard server: one gate serializes every op pre-split, two
// gates split the load after. CI archives the stream as
// BENCH_reshard.json.
func BenchmarkReshardSplit(b *testing.B) {
	jc := montecarlo.DefaultJobConfig()
	jc.TotalSims = 3000
	jc.SimsPerTask = 10 // → 300 subtasks: enough bag to stay gate-bound
	jc.WorkPerSubtask = 5 * time.Millisecond
	jc.PlanningCostPerTask = time.Millisecond
	jc.AggregationCostPerResult = 0
	jc.ShardSpread = true

	const watch = 500 * time.Millisecond
	const window = 4 * time.Second
	var blackoutTotal time.Duration
	var ratioTotal float64
	model := transport.LAN2001()
	model.SpaceOp = 20 * time.Millisecond
	for n := 0; n < b.N; n++ {
		clk := vclock.NewVirtual(chaosEpoch)
		fw := newFramework(b, clk, core.InProc(&model, nil), core.Config{
			Spec: shardhost.Spec{
				Shards:        1,
				Elastic:       true,
				WatchInterval: watch,
				TxnTTL:        8 * time.Second,
			},
			ResultTimeout: 5 * time.Minute,
			Workers:       cluster.Uniform(4, 1.0),
		})
		job := montecarlo.NewJob(jc)
		var rep shardhost.SplitReport
		var splitErr error
		var pre, post float64
		script := func(f *core.Framework) {
			f.Clock.Sleep(2 * time.Second) // warm-up: all four workers cycling
			t0 := shardTakes(f)
			f.Clock.Sleep(window)
			pre = float64(shardTakes(f)-t0) / window.Seconds()
			rep, splitErr = f.Host.Split(ring0(f))
			if splitErr != nil {
				return
			}
			f.Clock.Sleep(watch) // let every worker's watcher converge
			t1 := shardTakes(f)
			f.Clock.Sleep(window)
			post = float64(shardTakes(f)-t1) / window.Seconds()
		}
		var err error
		clk.Run(func() { _, err = fw.Run(job, script) })
		if err != nil {
			b.Fatalf("reshard bench run: %v", err)
		}
		if splitErr != nil {
			b.Fatalf("split: %v", splitErr)
		}
		blackout := rep.Cutover + watch
		if blackout >= 2*time.Second {
			b.Fatalf("split blackout %v is not under the 2s failover bar", blackout)
		}
		if pre <= 0 {
			b.Fatal("no tasks flowed in the pre-split window")
		}
		ratio := post / pre
		if ratio < 1.5 {
			b.Fatalf("post-split throughput %.1f/s over pre-split %.1f/s = %.2fx, want ≥1.5x", post, pre, ratio)
		}
		blackoutTotal += blackout
		ratioTotal += ratio
	}
	b.ReportMetric(float64(blackoutTotal.Milliseconds())/float64(b.N), "vms/split-blackout")
	b.ReportMetric(ratioTotal/float64(b.N), "x/split-throughput")
}
