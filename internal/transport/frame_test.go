package transport

import (
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// TestFrameRoundTrip: Frame/Unframe carry the deadline and priority, and
// the no-information case (zero deadline, PriNormal) adds no frame at all —
// an overload-oblivious server sees the bare argument.
func TestFrameRoundTrip(t *testing.T) {
	type payload struct{ N int }
	dl := time.Unix(100, 0)

	framed := Frame(payload{N: 7}, dl, PriHigh)
	inner, gotDl, gotPri := Unframe(framed)
	if inner.(payload).N != 7 || !gotDl.Equal(dl) || gotPri != PriHigh {
		t.Fatalf("round trip: got (%v, %v, %d)", inner, gotDl, gotPri)
	}

	bare := Frame(payload{N: 9}, time.Time{}, PriNormal)
	if _, ok := bare.(Framed); ok {
		t.Fatal("zero deadline + PriNormal must not allocate a frame")
	}
	inner, gotDl, gotPri = Unframe(bare)
	if inner.(payload).N != 9 || !gotDl.IsZero() || gotPri != PriNormal {
		t.Fatalf("bare unframe: got (%v, %v, %d)", inner, gotDl, gotPri)
	}
}

// TestServiceGateAdmitBy: a deadline the next service slot can meet admits
// and charges the full slot; one it cannot meet refuses WITHOUT reserving,
// so the abandoned op costs the server nothing. Zero deadlines admit
// unconditionally.
func TestServiceGateAdmitBy(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	const cost = 10 * time.Millisecond
	gate := NewServiceGate(clk, cost)
	clk.Run(func() {
		start := clk.Now()
		if !gate.AdmitBy(start.Add(cost)) {
			t.Fatal("idle gate refused a deadline exactly one slot away")
		}
		if got := clk.Since(start); got != cost {
			t.Fatalf("admitted op charged %v, want %v", got, cost)
		}

		// The gate is idle again; book a slot with a no-deadline op run in
		// the background so the next AdmitBy sees a busy server.
		g := vclock.NewGroup(clk)
		g.Go(func() { gate.AdmitBy(time.Time{}) })
		clk.Sleep(time.Millisecond)
		busy := clk.Now()
		if gate.AdmitBy(busy.Add(5 * time.Millisecond)) {
			t.Fatal("busy gate admitted an op whose slot ends past its deadline")
		}
		// Had the refused op reserved its slot, this one would queue
		// behind both and finish a whole cost later.
		if !gate.AdmitBy(time.Time{}) {
			t.Fatal("zero deadline must admit unconditionally")
		}
		if got, want := clk.Since(busy), 2*cost-time.Millisecond; got != want {
			t.Fatalf("op after a refusal finished %v after arriving, want %v: the refused op reserved a slot", got, want)
		}
		g.Wait()
	})
	// Nil and zero-cost gates never refuse.
	var nilGate *ServiceGate
	if !nilGate.AdmitBy(time.Unix(1, 0)) || !NewServiceGate(clk, 0).AdmitBy(time.Unix(1, 0)) {
		t.Fatal("nil/zero-cost gate refused")
	}
}

// TestServiceGateBacklog: the backlog — the reserved work extending past
// now — is what a newly arriving op waits before its own service: the
// queued ops' remaining service time when saturated, nothing once drained.
func TestServiceGateBacklog(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	const cost = 10 * time.Millisecond
	gate := NewServiceGate(clk, cost)
	clk.Run(func() {
		g := vclock.NewGroup(clk)
		for i := 0; i < 3; i++ {
			g.Go(func() { gate.AdmitBy(time.Time{}) })
		}
		clk.Sleep(time.Millisecond)
		backlog := 3*cost - time.Millisecond
		// A deadline one slot past the backlog is met; one a nanosecond
		// short of it is refused.
		now := clk.Now()
		if gate.AdmitBy(now.Add(backlog + cost - 1)) {
			t.Errorf("op admitted with a deadline inside the %v backlog", backlog)
		}
		if !gate.AdmitBy(now.Add(backlog + cost)) {
			t.Errorf("op refused with a deadline one slot past the %v backlog", backlog)
		}
		if got := clk.Since(now); got != backlog+cost {
			t.Errorf("arrival behind the backlog waited %v, want %v", got, backlog+cost)
		}
		g.Wait()
		start := clk.Now()
		gate.AdmitBy(time.Time{})
		if got := clk.Since(start); got != cost {
			t.Errorf("arrival at a drained gate waited %v, want %v", got, cost)
		}
	})
}
