package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/shardhost"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestShardedPlacementSpreadsKeys: a multi-shard framework actually
// partitions keyed entries across its shard servers.
func TestShardedPlacementSpreadsKeys(t *testing.T) {
	clk := vclock.NewReal()
	model := transport.Loopback()
	fw := mustNew(t, clk, InProc(&model, nil), Config{Spec: shardhost.Spec{Shards: 4}})
	if len(fw.Host.Shards()) != 4 {
		t.Fatalf("Shards = %d", len(fw.Host.Shards()))
	}
	for i := 0; i < 32; i++ {
		task := montecarlo.Task{Job: fmt.Sprintf("mc#%d", i), ID: i + 1}
		if _, err := fw.Space.Write(task, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	total, populated := 0, 0
	for _, l := range fw.Host.Shards() {
		n := l.TS.Stats().EntriesLive
		total += n
		if n > 0 {
			populated++
		}
	}
	if total != 32 {
		t.Fatalf("live entries = %d, want 32", total)
	}
	if populated < 2 {
		t.Fatalf("only %d of 4 shards populated", populated)
	}
}

// TestShardedEndToEnd runs the Monte-Carlo job in ShardSpread mode on a
// two-shard space: per-task keys distribute the bag of tasks, workers
// scatter-take with zero-key templates, and the run completes with every
// result aggregated — the shards=K path end to end.
func TestShardedEndToEnd(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.Uniform(4, 1.0), Spec: shardhost.Spec{Shards: 2}})
	cfg := smallMCConfig()
	cfg.ShardSpread = true
	job := montecarlo.NewJob(cfg)
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Shards != 2 {
		t.Fatalf("Metrics.Shards = %d, want 2", res.Metrics.Shards)
	}
	if res.Metrics.Tasks != 12 || job.ResultCount() != 12 {
		t.Fatalf("tasks = %d, results = %d, want 12/12", res.Metrics.Tasks, job.ResultCount())
	}
	if _, err := job.Answer(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for node, st := range res.WorkerStats {
		if st.TaskFailures != 0 {
			t.Fatalf("%s failures: %+v", node, st)
		}
		total += st.TasksDone
	}
	if total != 12 {
		t.Fatalf("workers completed %d tasks", total)
	}
	// Nothing left behind on any shard: no leaked tasks or results.
	for i, l := range fw.Host.Shards() {
		if n := l.TS.Stats().EntriesLive; n != 0 {
			t.Fatalf("shard %d holds %d leftover entries", i, n)
		}
	}
}

// TestShardedSingleShardMatchesClassic: Shards=1 is byte-for-byte the
// classic deployment — same metrics, same virtual end time.
func TestShardedSingleShardMatchesClassic(t *testing.T) {
	run := func(cfg Config) (Result, time.Time) {
		clk := vclock.NewVirtual(epoch)
		fw := mustNew(t, clk, InProc(nil, nil), cfg)
		job := montecarlo.NewJob(smallMCConfig())
		var res Result
		clk.Run(func() { res, _ = fw.Run(job, nil) })
		return res, clk.Now()
	}
	classic, end1 := run(Config{Workers: cluster.Uniform(3, 1.0)})
	sharded, end2 := run(Config{Workers: cluster.Uniform(3, 1.0), Spec: shardhost.Spec{Shards: 1}})
	if classic.Metrics != sharded.Metrics {
		t.Fatalf("metrics differ:\n%+v\n%+v", classic.Metrics, sharded.Metrics)
	}
	if !end1.Equal(end2) {
		t.Fatalf("virtual end times differ: %v vs %v", end1, end2)
	}
}

// TestGatedSpaceOpCost: with a modeled per-op server cost the run still
// completes, and the master's metrics report the shard count.
func TestGatedSpaceOpCost(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	model := transport.LAN2001()
	model.SpaceOp = 2 * time.Millisecond
	fw := mustNew(t, clk, InProc(&model, nil), Config{
		Workers: cluster.Uniform(2, 1.0),
		Spec:    shardhost.Spec{Shards: 2},
	})
	job := montecarlo.NewJob(smallMCConfig())
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if job.ResultCount() != 12 {
		t.Fatalf("results = %d", job.ResultCount())
	}
	if res.Metrics.Shards != 2 {
		t.Fatalf("Metrics.Shards = %d", res.Metrics.Shards)
	}
}

// TestNewRejectsInvalidSpec: the simulator validates the embedded shard-host
// spec exactly as cmd/master does, and returns the host's validation error
// (once a panic) before opening either network.
func TestNewRejectsInvalidSpec(t *testing.T) {
	for _, net := range []Net{InProc(nil, nil), TCP("127.0.0.1:1", "127.0.0.1:0", nil)} {
		_, err := New(vclock.NewReal(), net, Config{Spec: shardhost.Spec{Replicas: 2}})
		if err == nil || !strings.Contains(err.Error(), "replicas must be 0 or 1") {
			t.Fatalf("New with Replicas: 2: err = %v, want the host's validation error", err)
		}
	}
}
