package e2e

import (
	"testing"
	"time"

	"gospaces/internal/core"
	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/shardhost"
)

// TestFlightFailoverRetrySpanTree is the control-plane tracing acceptance
// scenario: shard 0's primary is killed mid-job while delay faults push
// tokened mutations into ambiguous op timeouts. The promotion must
// record one root "failover" span, every router retarget must join it as
// a child (the trace context rides the promoted registration's attrs),
// and every recorded token retry attempt must parent under a
// retarget — one connected span tree, zero orphans. The flight recorder
// must hold the same story as a causally consistent merged timeline:
// kill, then promotion, then retargets, in vclock order.
func TestFlightFailoverRetrySpanTree(t *testing.T) {
	o := obs.New(1)
	o.Tracer.KeepAll()
	plan := faults.NewPlan(chaosSeed(t, 42))
	// 800 ms of injected latency against a 500 ms op deadline: the call
	// lands but the reply is lost to the caller — the ambiguous outcome
	// the tokened retry path exists for.
	plan.DelayCalls("node/*", "master*", "space.Write", 800*time.Millisecond, 0.25)
	plan.DelayCalls("node/*", "master*", "space.TxnCommit", 800*time.Millisecond, 0.2)

	jc := failoverJobConfig()
	script := func(f *core.Framework) {
		f.Clock.Sleep(2 * time.Second)
		if err := f.Host.KillPrimary(0); err != nil {
			t.Errorf("kill shard 0 primary: %v", err)
		}
	}
	res, job, fw := runFailover(t, plan, 4, core.Config{
		Spec: shardhost.Spec{
			Shards:   2,
			Replicas: 1,
			TxnTTL:   8 * time.Second,
			Obs:      o,
		},
		OpTimeout:     500 * time.Millisecond,
		ResultTimeout: 10 * time.Minute,
	}, jc, script)

	assertExactResults(t, job, jc)
	if got := res.Counters[metrics.CounterReplPromotions]; got != 1 {
		t.Fatalf("promotions = %d, want exactly 1", got)
	}
	if res.Counters[metrics.CounterRetryAmbiguous] == 0 {
		t.Fatal("no ambiguous outcomes despite delay faults past the op deadline")
	}

	// The span tree: one failover root, retargets as its children, retry
	// attempts under retargets. Task-stage spans (plan/take/...) live in
	// their own per-task traces and are checked by the obs suite; here we
	// only demand global connectedness plus the control-plane shape.
	spans := o.Tracer.Spans()
	if orphans := obs.Orphans(spans); len(orphans) != 0 {
		t.Fatalf("%d orphaned spans: %+v", len(orphans), orphans)
	}
	by := spansByName(spans)
	if n := len(by["failover"]); n != 1 {
		t.Fatalf("%d failover root spans, want 1", n)
	}
	root := by["failover"][0]
	if root.Parent != 0 {
		t.Fatalf("failover span has parent %x, want root", root.Parent)
	}
	retargets := by["failover:retarget"]
	if len(retargets) == 0 {
		t.Fatal("no failover:retarget spans; routers never joined the promotion's trace")
	}
	retargetIDs := make(map[uint64]bool, len(retargets))
	for _, s := range retargets {
		if s.Trace != root.Trace || s.Parent != root.ID {
			t.Fatalf("retarget span (node %s) in trace %x parent %x, want child of failover %x/%x",
				s.Node, s.Trace, s.Parent, root.Trace, root.ID)
		}
		retargetIDs[s.ID] = true
	}
	retries := by["retry:attempt"]
	if len(retries) == 0 {
		t.Fatal("no retry:attempt spans recorded after the retarget")
	}
	for _, s := range retries {
		if s.Trace != root.Trace {
			t.Fatalf("retry span (node %s) in trace %x, want the failover trace %x", s.Node, s.Trace, root.Trace)
		}
		if !retargetIDs[s.Parent] {
			t.Fatalf("retry span (node %s) parented to %x, not a retarget span", s.Node, s.Parent)
		}
	}

	// The flight recorder tells the same story, causally ordered.
	dump := o.Fl().Dump()
	if err := obs.CheckTimeline(dump.Events); err != nil {
		t.Fatalf("merged timeline not causally consistent: %v", err)
	}
	ring0, ok := fw.Host.RingID(0)
	if !ok {
		t.Fatal("no ring ID for shard 0")
	}
	var kill, promote *obs.FlightEvent
	for i := range dump.Events {
		ev := &dump.Events[i]
		if ev.Shard != ring0 {
			continue
		}
		switch ev.Kind {
		case obs.EventKill:
			kill = ev
		case obs.EventPromote:
			promote = ev
		}
	}
	if kill == nil || promote == nil {
		t.Fatalf("timeline lacks the kill/promotion (kill=%v promote=%v)", kill, promote)
	}
	if kill.Clk >= promote.Clk {
		t.Fatalf("kill (clk %d) not before promotion (clk %d)", kill.Clk, promote.Clk)
	}
	if promote.Epoch != 2 || promote.Trace != root.Trace {
		t.Fatalf("promotion event = %+v, want epoch 2 in trace %x", promote, root.Trace)
	}
	nRetargets := 0
	for _, ev := range dump.Events {
		if ev.Kind != obs.EventRetarget || ev.Shard != ring0 {
			continue
		}
		nRetargets++
		if ev.Clk <= promote.Clk {
			t.Fatalf("retarget (node %s, clk %d) not causally after the promotion (clk %d)",
				ev.Node, ev.Clk, promote.Clk)
		}
		if ev.Trace != root.Trace {
			t.Fatalf("retarget event (node %s) in trace %x, want %x", ev.Node, ev.Trace, root.Trace)
		}
	}
	if nRetargets == 0 {
		t.Fatal("timeline has no failover:retarget events for shard 0")
	}
}
