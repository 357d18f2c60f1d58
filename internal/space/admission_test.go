package space

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestAdmissionInflightBound: the hard pending-op cap rejects the
// MaxInflight+1st op with ErrOverloaded and admits again once a slot
// frees.
func TestAdmissionInflightBound(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var a Admission
	a.Configure(AdmissionConfig{Clock: clk, MaxInflight: 2})

	if _, err := a.admit(time.Time{}, transport.PriHigh); err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	if _, err := a.admit(time.Time{}, transport.PriHigh); err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	if _, err := a.admit(time.Time{}, transport.PriHigh); !errors.Is(err, tuplespace.ErrOverloaded) {
		t.Fatalf("admit 3: err = %v, want ErrOverloaded", err)
	}
	a.release()
	if _, err := a.admit(time.Time{}, transport.PriHigh); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	v := a.Vitals()
	if v.Rejected != 1 || v.Admitted != 3 {
		t.Fatalf("vitals = %+v, want 1 rejection, 3 admissions", v)
	}
}

// TestAdmissionExpiredDeadline: an op whose client has already given up is
// rejected before execution with ErrDeadlineExpired.
func TestAdmissionExpiredDeadline(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var a Admission
	a.Configure(AdmissionConfig{Clock: clk})

	past := clk.Now().Add(-time.Millisecond)
	if _, err := a.admit(past, transport.PriHigh); !errors.Is(err, tuplespace.ErrDeadlineExpired) {
		t.Fatalf("err = %v, want ErrDeadlineExpired", err)
	}
	if _, err := a.admit(clk.Now().Add(time.Second), transport.PriHigh); err != nil {
		t.Fatalf("live deadline rejected: %v", err)
	}
	if v := a.Vitals(); v.DeadlineExpired != 1 {
		t.Fatalf("vitals = %+v, want 1 expiry", v)
	}
}

// TestAdmissionBrownoutLevels walks the brownout state machine: sustained
// saturation sheds diagnostics first (level 1), then reads (level 2),
// mutations never; draining exits to level 0. Each transition reaches the
// flight sink.
func TestAdmissionBrownoutLevels(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var transitions []string
	var a Admission
	a.Configure(AdmissionConfig{
		Clock:       clk,
		MaxInflight: 10,
		FlightSink:  func(d string) { transitions = append(transitions, d) },
	})

	clk.Run(func() {
		// Pin utilization at 0.9 with nine held slots, then probe over time.
		for i := 0; i < 9; i++ {
			if _, err := a.admit(time.Time{}, transport.PriHigh); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		probe := func(pri int) error {
			_, err := a.admit(time.Time{}, pri)
			if err == nil {
				a.release()
			}
			return err
		}
		if err := probe(transport.PriLow); err != nil {
			t.Fatalf("level 0 must admit diagnostics: %v", err)
		}
		clk.Sleep(300 * time.Millisecond) // past brownoutAfter (250ms)
		if err := probe(transport.PriLow); !errors.Is(err, tuplespace.ErrOverloaded) {
			t.Fatalf("level 1 diagnostic: err = %v, want ErrOverloaded", err)
		}
		if a.Vitals().BrownoutLevel != 1 {
			t.Fatalf("level = %d, want 1", a.Vitals().BrownoutLevel)
		}
		if err := probe(transport.PriNormal); err != nil {
			t.Fatalf("level 1 must still admit reads: %v", err)
		}
		clk.Sleep(300 * time.Millisecond) // past 2×brownoutAfter total
		if err := probe(transport.PriNormal); !errors.Is(err, tuplespace.ErrOverloaded) {
			t.Fatalf("level 2 read: err = %v, want ErrOverloaded", err)
		}
		if a.Vitals().BrownoutLevel != 2 {
			t.Fatalf("level = %d, want 2", a.Vitals().BrownoutLevel)
		}
		if err := probe(transport.PriHigh); err != nil {
			t.Fatalf("mutations must never be shed: %v", err)
		}

		// Drain: the next admit sees utilization at or under brownoutExit
		// and leaves brownout, readmitting diagnostics.
		for i := 0; i < 9; i++ {
			a.release()
		}
		if err := probe(transport.PriLow); err != nil {
			t.Fatalf("post-drain diagnostic: %v", err)
		}
		if a.Vitals().BrownoutLevel != 0 {
			t.Fatalf("level = %d after drain, want 0", a.Vitals().BrownoutLevel)
		}
	})
	if v := a.Vitals(); v.Shed != 2 {
		t.Fatalf("vitals = %+v, want 2 shed", v)
	}
	want := []string{"level 1: shedding diagnostics", "level 2: shedding reads", "exit"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

// TestAdmissionFreesAbandonedWaiter is the waiter-leak regression test: a
// blocking Take whose frame spent its queue budget behind a slow gate must
// park only until the client's propagated deadline, not the full semantic
// timeout past its admission. The waiter slot frees when the client gives
// up instead of leaking for seconds.
func TestAdmissionFreesAbandonedWaiter(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	local := NewLocal(clk)
	srv := transport.NewServer()
	svc := NewService(local, srv)
	gate := transport.NewServiceGate(clk, 2*time.Second)
	svc.Admission().Configure(AdmissionConfig{Clock: clk, Gate: gate})
	net := transport.NewNetwork(clk, transport.Loopback())
	net.Listen("space", srv)

	slow := NewProxy(net.Dial("space")) // no deadline: admitted unconditionally
	deadlined := NewProxy(net.Dial("space")).WithOpTimeout(clk, 500*time.Millisecond)

	clk.Run(func() {
		g := vclock.NewGroup(clk)
		g.Go(func() { _, _ = slow.Count(job{}) }) // occupies the gate for [0s, 2s]
		clk.Sleep(10 * time.Millisecond)

		// Deadline = now + 500ms + 10s ≈ 10.51s. The gate releases the op at
		// 4s, so an unclamped waiter would park the full semantic 10s — until
		// 14s, 3.5s past the client's abandonment.
		_, err := deadlined.Take(job{Name: "missing"}, nil, 10*time.Second)
		if err == nil {
			t.Error("Take on an empty space returned an entry")
		}
		g.Wait()

		clk.Sleep(600 * time.Millisecond) // well past the deadline, well short of 14s
		if st := local.TS.Stats(); st.Waiting != 0 {
			t.Errorf("%d waiter(s) still parked after the client's deadline", st.Waiting)
		}
	})
}
