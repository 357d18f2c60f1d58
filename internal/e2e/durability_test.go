package e2e

import (
	"testing"
	"time"

	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/faults"
	"gospaces/internal/shardhost"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// TestChaosShardCrashRestartRecoversFromWAL is the durability acceptance
// scenario: mid-job, shard 1 of a two-shard durable deployment is killed —
// its network endpoint goes dark for the workers AND its in-memory state
// is discarded — then restarted from its data directory. The recovered
// shard rejoins the ring under the same address and the job completes
// with zero lost and zero duplicated results.
func TestChaosShardCrashRestartRecoversFromWAL(t *testing.T) {
	plan := faults.NewPlan(chaosSeed(t, 11))
	// Workers cannot reach shard 1 between 500ms and 2.5s; the master
	// holds direct handles, so its own writes keep landing in the WAL
	// right up to the kill.
	plan.CrashEndpoint("master.shard1", 500*time.Millisecond, 2500*time.Millisecond)

	var restartInfo space.RecoveryInfo
	var restartErr error
	script := func(f *core.Framework) {
		// Kill -9 at t=1500ms, inside the network outage: the in-memory
		// space is dropped and the replacement recovers from the WAL.
		f.Clock.Sleep(1500 * time.Millisecond)
		restartInfo, restartErr = f.Host.Restart(1)
	}

	res, job, _ := runFailover(t, plan, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:  2,
			TxnTTL:  8 * time.Second,
			DataDir: t.TempDir(),
		},
		ResultTimeout: 5 * time.Minute,
	}, chaosJobConfig(), script)
	if restartErr != nil {
		t.Fatalf("Host.Restart: %v", restartErr)
	}

	// Zero lost, zero duplicated: the aggregate must be exact.
	assertExactResults(t, job, chaosJobConfig())
	if res.Metrics.Tasks != job.ResultCount() {
		t.Fatalf("planned %d tasks, aggregated %d results", res.Metrics.Tasks, job.ResultCount())
	}

	// The restart really went through the log: the shard had taken
	// traffic before the kill, so recovery replayed records.
	if restartInfo.SnapshotRecords+restartInfo.TailRecords == 0 {
		t.Fatal("shard restart replayed nothing — the crash never hit a populated WAL")
	}
	if got := res.Counters[wal.CounterTailRestored]; got == 0 {
		t.Fatalf("%s = 0, want > 0 (recovery metrics missing from Result)", wal.CounterTailRestored)
	}
	// The recovery snapshot fenced off the pre-crash segments.
	if got := res.Counters[wal.CounterSnapshots]; got == 0 {
		t.Fatalf("%s = 0, want > 0 (recovery snapshot not taken)", wal.CounterSnapshots)
	}
	if got := res.Counters[tuplespace.CounterJournalErrors]; got != 0 {
		t.Fatalf("%s = %d, want 0", tuplespace.CounterJournalErrors, got)
	}
	// The outage was visible: workers' calls against the dark shard died.
	if res.FaultEvents[faults.EventDeadCall] == 0 {
		t.Fatal("no dead calls counted — the shard outage never bit")
	}
}

// duraEntry is the e2e persistence probe type.
type duraEntry struct {
	K string
	N int
}

func init() { transport.RegisterType(duraEntry{}) }

// TestDurableFrameworkRestartAcrossRuns: a framework torn down cleanly and
// reassembled over the same data directory serves yesterday's entries —
// the in-process equivalent of restarting the master process with the
// same -datadir.
func TestDurableFrameworkRestartAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		Workers: cluster.Uniform(1, 1.0),
		Spec: shardhost.Spec{
			Shards:  2,
			DataDir: dir,
		},
	}

	clk1 := vclock.NewVirtual(chaosEpoch)
	fw1 := newFramework(t, clk1, core.InProc(nil, nil), cfg)
	clk1.Run(func() {
		for i := 0; i < 6; i++ {
			shard := fw1.Host.Shards()[i%2]
			if _, err := shard.Write(duraEntry{K: "persist", N: i}, nil, tuplespace.Forever); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
	})
	fw1.Close()

	clk2 := vclock.NewVirtual(chaosEpoch.Add(24 * time.Hour))
	fw2 := newFramework(t, clk2, core.InProc(nil, nil), cfg)
	defer fw2.Close()
	total := 0
	clk2.Run(func() {
		for s := 0; s < 2; s++ {
			info := fw2.Host.Durables()[s].Info()
			if info.Restored != 3 {
				t.Errorf("shard %d restored %d entries, want 3", s, info.Restored)
			}
			n, err := fw2.Host.Shards()[s].Count(duraEntry{K: "persist"})
			if err != nil {
				t.Errorf("shard %d count: %v", s, err)
			}
			total += n
		}
	})
	if total != 6 {
		t.Fatalf("recovered %d entries across shards, want 6", total)
	}
}
