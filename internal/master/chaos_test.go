package master

import (
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

func init() {
	transport.RegisterType(fakeTask{})
	transport.RegisterType(fakeResult{})
}

// TestChaosDuplicatedResultDeliveries: the network redelivers every result
// Write the worker makes (at-least-once delivery). The worker reaches the
// space as the real one does — through a tokened shard.Router, taking the
// task and writing its result under one transaction — so each redelivery
// carries the first delivery's token and the shard answers it inside the
// transaction instead of storing a second copy. The master, which keeps no
// dedup of its own, must aggregate each result exactly once and find the
// space empty of results afterwards.
func TestChaosDuplicatedResultDeliveries(t *testing.T) {
	const tasks = 8
	clk := vclock.NewVirtual(time.Unix(0, 0))
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Loopback())
		local := space.NewLocal(clk)
		srv := transport.NewServer()
		space.NewService(local, srv)
		net.Listen("space", srv)

		plan := faults.NewPlan(5)
		plan.Bind(clk)
		plan.DuplicateCalls("node/w1", "space", "space.Write", 1)

		router, err := shard.New(shard.Options{Clock: clk, Seed: "w1"},
			[]shard.Shard{{ID: "space", Space: space.NewProxy(plan.WrapClient("node/w1", "space", net.Dial("space")))}})
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{Clock: clk, Space: local, Machine: sysmon.NewMachine(clk, "master", 1), ResultTimeout: 30 * time.Second})
		job := &fakeJob{n: tasks}
		var quit atomic.Bool
		worker := vclock.NewGroup(clk)
		worker.Go(func() { txnEchoWorker(clk, router, &quit) })
		_, err = m.RunJob(job)
		quit.Store(true)
		worker.Wait()
		if err != nil {
			t.Fatalf("run under duplicated deliveries: %v", err)
		}
		if len(job.got) != tasks {
			t.Fatalf("aggregated %d results, want exactly %d", len(job.got), tasks)
		}
		ids := make(map[int]bool)
		for _, r := range job.got {
			if ids[r.ID] {
				t.Fatalf("result %d aggregated twice", r.ID)
			}
			ids[r.ID] = true
		}
		if got := plan.Counters().Get(faults.EventDuplicate); got != tasks {
			t.Fatalf("duplicate events = %d, want %d (every result write redelivered)", got, tasks)
		}
		if left, err := local.Count(job.ResultTemplate()); err != nil || left != 0 {
			t.Fatalf("results left in the space = %d (err %v), want 0: a redelivery was stored", left, err)
		}
	})
}

// txnEchoWorker is echoWorker with the real worker's transaction: take the
// task, write its result and commit, all under one transaction.
func txnEchoWorker(clk *vclock.Virtual, sp space.Space, quit *atomic.Bool) {
	for !quit.Load() {
		tx, err := sp.BeginTxn(time.Minute)
		if err != nil {
			return
		}
		e, err := sp.Take(fakeTask{Job: "fake"}, tx, 50*time.Millisecond)
		if err != nil {
			_ = tx.Abort()
			continue
		}
		task := e.(fakeTask)
		clk.Sleep(10 * time.Millisecond)
		if _, err := sp.Write(fakeResult{Job: "fake", ID: task.ID, Round: task.Round}, tx, tuplespace.Forever); err != nil {
			_ = tx.Abort()
			return
		}
		if err := tx.Commit(); err != nil {
			return
		}
	}
}
