package master

import (
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

func init() {
	transport.RegisterType(fakeTask{})
	transport.RegisterType(fakeResult{})
}

// TestChaosDuplicatedResultDeliveries: the network redelivers every result
// Write the worker makes (at-least-once delivery), so the space holds two
// copies of each result. With DedupResults the master must still aggregate
// each result exactly once, collect the phase to completion (no deadlock,
// no starvation), and account for every dropped copy.
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
		net.Intercept(plan.Interceptor())

		m := New(Config{
			Clock:         clk,
			Space:         local,
			ResultTimeout: 30 * time.Second,
			DedupResults:  true,
		})
		job := &fakeJob{n: tasks}
		var quit atomic.Bool
		worker := vclock.NewGroup(clk)
		worker.Go(func() {
			// The worker talks to the space over the faulty network; the
			// master holds its usual direct local handle.
			echoWorker(clk, space.NewProxy(net.DialAs("node/w1", "space")), &quit)
		})
		rm, err := m.RunJob(job)
		quit.Store(true)
		// The plan redelivers a Write after its first delivery returns, and
		// that first delivery is what wakes the master's last take: RunJob
		// can finish while the worker is still runnable, its final
		// duplicate undelivered. Virtual time orders sleeps, not runnable
		// goroutines, so wait for the worker to drain before counting.
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
		// Collection stops at n distinct results, so the copy of the very
		// last result is still parked in the space: n-1 dropped, 1 left.
		if rm.DuplicatesDropped != tasks-1 {
			t.Fatalf("DuplicatesDropped = %d, want %d (every write was redelivered)",
				rm.DuplicatesDropped, tasks-1)
		}
		if left, err := local.Count(job.ResultTemplate()); err != nil || left != 1 {
			t.Fatalf("leftover duplicates in space = %d (err %v), want 1", left, err)
		}
		if got := plan.Counters().Get(faults.EventDuplicate); got != tasks {
			t.Fatalf("duplicate events = %d, want %d", got, tasks)
		}
	})
}
