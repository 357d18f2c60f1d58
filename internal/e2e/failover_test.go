package e2e

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/replica"
	"gospaces/internal/shardhost"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// The replication acceptance scenarios: a shard primary dying mid-job is
// absorbed by its hot standby — promotion within the failover timeout,
// ring retarget, zero lost and zero duplicated results, and no
// Host.Restart anywhere. The master collects with no dedup of its own:
// a worker whose commit raced the crash replays it under its token, and
// the promoted standby answers from the memo the commit shipped.

// TestChaosFailoverKillEveryPrimaryMidJob is the acceptance scenario:
// with Replicas=1, every shard primary is killed (the in-process
// equivalent of kill -9: pump dead mid-beat, space closed, WAL shut)
// exactly once while the job is in flight. Each hot standby must promote
// itself — exactly one epoch bump per killed primary — the ring must
// retarget without any Host.Restart call, and the job must complete with
// zero lost and zero duplicated results.
func TestChaosFailoverKillEveryPrimaryMidJob(t *testing.T) {
	const shards = 2
	jc := failoverJobConfig()
	script := func(f *core.Framework) {
		for i := 0; i < shards; i++ {
			f.Clock.Sleep(2 * time.Second)
			if err := f.Host.KillPrimary(i); err != nil {
				t.Errorf("kill shard %d primary: %v", i, err)
				return
			}
			// Let the standby detect the silence and promote before the
			// next shard's primary dies, so the job is never down to zero
			// live shards.
			f.Clock.Sleep(4 * time.Second)
		}
	}
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:   shards,
			Replicas: 1,
			TxnTTL:   8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, script)

	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReplPromotions]; got != shards {
		t.Fatalf("promotions = %d, want exactly %d (one per killed primary)", got, shards)
	}
	for i := 0; i < shards; i++ {
		if e := fw.Host.Epoch(i); e != 2 {
			t.Fatalf("shard %d epoch = %d, want 2 (exactly one bump)", i, e)
		}
	}
	if got := res.Counters[metrics.CounterReplFailovers]; got == 0 {
		t.Fatalf("no router failovers recorded; expected at least one retarget onto a promoted backup")
	}
	if shipped := res.Counters[metrics.CounterReplShipped]; shipped == 0 {
		t.Fatalf("no journal records shipped; replication stream never ran")
	}
}

// TestChaosFailoverPartitionPrimaryFromBackup cuts the primary→backup
// replication link mid-job. The sync-mode primary degrades (nothing is
// acknowledged that the backup did not see), the backup promotes itself
// after the heartbeat silence, and when the partition heals the deposed
// primary's next heartbeat is fenced by the higher epoch — split brain
// closed with exactly one promotion.
func TestChaosFailoverPartitionPrimaryFromBackup(t *testing.T) {
	plan := faults.NewPlan(chaosSeed(t, 42))
	// The mirror stream dials from the shard's own address; cutting that
	// one direction severs replication while every client path stays up.
	plan.PartitionOneWay("master", "master.backup", 3*time.Second, 6*time.Second)

	jc := failoverJobConfig()
	res, job, fw := runFailover(t, plan, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:   1,
			Replicas: 1,
			TxnTTL:   8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, nil)

	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReplPromotions]; got != 1 {
		t.Fatalf("promotions = %d, want exactly 1 (one epoch, one promotion)", got)
	}
	if e := fw.Host.Epoch(0); e != 2 {
		t.Fatalf("shard epoch = %d, want 2", e)
	}
	if got := res.Counters[metrics.CounterReplFenced]; got == 0 {
		t.Fatalf("no fenced requests recorded; the deposed primary was never rejected")
	}

	// The deposed primary survived the whole run, but the higher epoch
	// fenced it: mutations through its old handle must be refused.
	_, err := fw.Host.DeposedHandle(0).Write(montecarlo.Task{Job: "late", ID: 999}, nil, tuplespace.Forever)
	if err == nil {
		t.Fatalf("deposed primary accepted a write after promotion (split brain)")
	}
	if !errors.Is(err, replica.ErrFenced) && err != replica.ErrUnavailable {
		t.Fatalf("deposed write error = %v, want fenced (or unavailable while degraded)", err)
	}
	if !errors.Is(err, replica.ErrFenced) {
		t.Fatalf("deposed write error = %v, want replica.ErrFenced", err)
	}
}

// BenchmarkFailoverLatency measures the failover blackout window on the
// virtual clock: the span from Host.KillPrimary to the ring serving at
// the promoted epoch (silence detection + promotion + retarget). CI
// archives the result as BENCH_failover.json; the vms/failover metric is
// virtual milliseconds, bounded below by Config.FailoverTimeout (2s
// default here).
func BenchmarkFailoverLatency(b *testing.B) {
	jc := failoverJobConfig()
	var total time.Duration
	for n := 0; n < b.N; n++ {
		clk := vclock.NewVirtual(chaosEpoch)
		fw := newFramework(b, clk, core.InProc(nil, nil), core.Config{
			Spec: shardhost.Spec{
				Shards:   1,
				Replicas: 1,
				TxnTTL:   8 * time.Second,
			},
			ResultTimeout: 5 * time.Minute,
			Workers:       cluster.Uniform(4, 1.0),
		})
		job := montecarlo.NewJob(jc)
		var lat time.Duration
		script := func(f *core.Framework) {
			f.Clock.Sleep(2 * time.Second)
			killAt := f.Clock.Now()
			if err := f.Host.KillPrimary(0); err != nil {
				b.Errorf("kill: %v", err)
				return
			}
			for f.Host.Epoch(0) != 2 {
				f.Clock.Sleep(50 * time.Millisecond)
			}
			lat = f.Clock.Now().Sub(killAt)
		}
		var err error
		clk.Run(func() { _, err = fw.Run(job, script) })
		if err != nil {
			b.Fatalf("failover run: %v", err)
		}
		if lat == 0 {
			b.Fatal("failover never completed")
		}
		total += lat
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "vms/failover")
}

// TestChaosFailoverRejoinAndFailBack kills the primary, lets the standby
// promote, rejoins the dead node as the new hot standby (snapshot push +
// incremental tail), then kills the promoted primary too — service must
// fail back to the rejoined node at a third epoch with nothing lost.
func TestChaosFailoverRejoinAndFailBack(t *testing.T) {
	jc := failoverJobConfig()
	script := func(f *core.Framework) {
		f.Clock.Sleep(2 * time.Second)
		if err := f.Host.KillPrimary(0); err != nil {
			t.Errorf("first kill: %v", err)
			return
		}
		// Wait out the promotion, then bring the dead node back as the
		// promoted primary's standby.
		for f.Host.Epoch(0) != 2 {
			f.Clock.Sleep(250 * time.Millisecond)
		}
		f.Clock.Sleep(time.Second)
		if err := f.Host.Rejoin(0); err != nil {
			t.Errorf("rejoin: %v", err)
			return
		}
		f.Clock.Sleep(2 * time.Second)
		if err := f.Host.KillPrimary(0); err != nil {
			t.Errorf("second kill: %v", err)
			return
		}
	}
	res, job, fw := runFailover(t, nil, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:   1,
			Replicas: 1,
			TxnTTL:   8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	}, jc, script)

	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReplPromotions]; got != 2 {
		t.Fatalf("promotions = %d, want 2 (failover, then fail-back)", got)
	}
	if e := fw.Host.Epoch(0); e != 3 {
		t.Fatalf("shard epoch = %d, want 3", e)
	}
	if got := res.Counters[metrics.CounterReplResyncs]; got == 0 {
		t.Fatalf("no resyncs recorded; the rejoined node never caught up by snapshot push")
	}
}
