package faults

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

var epoch = time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC)

// echoServer returns a Server with a method that counts and echoes.
func echoServer(calls *int) *transport.Server {
	srv := transport.NewServer()
	srv.Handle("echo.Ping", func(arg interface{}) (interface{}, error) {
		*calls++
		return arg, nil
	})
	return srv
}

func TestSameSeedSameSchedule(t *testing.T) {
	run := func(seed int64) []bool {
		p := NewPlan(seed)
		p.Bind(vclock.NewReal())
		p.DropCalls("a", "b", "", 0.5)
		var fired []bool
		for n := 0; n < 64; n++ {
			p.mu.Lock()
			fired = append(fired, p.decideLocked(0, p.rules[0], "a", "b"))
			p.mu.Unlock()
		}
		return fired
	}
	s1, s2, s3 := run(7), run(7), run(8)
	if len(s1) != 64 {
		t.Fatalf("got %d decisions", len(s1))
	}
	diff13 := false
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if s1[i] != s3[i] {
			diff13 = true
		}
	}
	if !diff13 {
		t.Fatal("seeds 7 and 8 produced identical 64-call schedules")
	}
	any := false
	for _, f := range s1 {
		any = any || f
	}
	if !any {
		t.Fatal("prob 0.5 never fired in 64 calls")
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Interleaving calls from another endpoint pair must not shift a
	// stream's decisions — the property that keeps virtual-clock chaos
	// runs reproducible despite goroutine interleaving.
	decisions := func(interleave bool) []bool {
		p := NewPlan(3)
		p.Bind(vclock.NewReal())
		p.DropCalls("", "b", "", 0.5)
		var out []bool
		for n := 0; n < 32; n++ {
			if interleave {
				p.mu.Lock()
				p.decideLocked(0, p.rules[0], "other", "b")
				p.mu.Unlock()
			}
			p.mu.Lock()
			out = append(out, p.decideLocked(0, p.rules[0], "a", "b"))
			p.mu.Unlock()
		}
		return out
	}
	plain, mixed := decisions(false), decisions(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("stream (a,b) perturbed by (other,b) traffic at call %d", i)
		}
	}
}

func TestDropDelayDuplicateOverInproc(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Loopback())
		handled := 0
		net.Listen("svc", echoServer(&handled))

		p := NewPlan(1)
		p.Bind(clk)
		p.DropCalls("caller", "svc", "echo.Ping", 1)

		raw := net.Dial("svc")
		if _, err := p.WrapClient("caller", "svc", raw).Call("echo.Ping", "x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("dropped call: got err %v, want ErrInjected", err)
		}
		if handled != 0 {
			t.Fatalf("dropped call reached the handler")
		}
		if got := p.Counters().Get(EventDrop); got != 1 {
			t.Fatalf("drop count = %d, want 1", got)
		}

		// The same connection under a delay-everything plan.
		p2 := NewPlan(1)
		p2.Bind(clk)
		p2.DelayCalls("", "svc", "", 40*time.Millisecond, 1)
		before := clk.Now()
		if _, err := p2.WrapClient("caller", "svc", raw).Call("echo.Ping", "x"); err != nil {
			t.Fatalf("delayed call failed: %v", err)
		}
		if d := clk.Now().Sub(before); d < 40*time.Millisecond {
			t.Fatalf("delayed call took %v, want >= 40ms", d)
		}
		if handled != 1 {
			t.Fatalf("handled = %d after delayed call, want 1", handled)
		}

		// And a duplicate-everything plan: one Call, two deliveries.
		p3 := NewPlan(1)
		p3.Bind(clk)
		p3.DuplicateCalls("", "svc", "echo.Ping", 1)
		if _, err := p3.WrapClient("caller", "svc", raw).Call("echo.Ping", "x"); err != nil {
			t.Fatalf("duplicated call failed: %v", err)
		}
		if handled != 3 {
			t.Fatalf("handled = %d after duplicated call, want 3", handled)
		}
		if got := p3.Counters().Get(EventDuplicate); got != 1 {
			t.Fatalf("duplicate count = %d, want 1", got)
		}
	})
}

func TestCrashOnCallAfterHandler(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Loopback())
		handled := 0
		srv := transport.NewServer()
		srv.Handle("echo.Ping", func(arg interface{}) (interface{}, error) {
			handled++
			if handled == 1 {
				return nil, errors.New("first call fails")
			}
			return arg, nil
		})
		net.Listen("svc", srv)

		p := NewPlan(1)
		p.Bind(clk)
		// Crash the caller on its 1st *successful* call, down for 1s.
		p.CrashOnCall("w1", "svc", "echo.Ping", 1, AfterHandler, "", time.Second)

		c := p.WrapClient("w1", "svc", net.Dial("svc"))
		// Handler error: must NOT consume the nth-success budget.
		if _, err := c.Call("echo.Ping", "x"); err == nil {
			t.Fatal("expected handler error on first call")
		}
		if p.Down("w1") {
			t.Fatal("crashed on a failed call")
		}
		// First success: handler runs (effect lands), reply lost, caller dead.
		_, err := c.Call("echo.Ping", "x")
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != "crash" {
			t.Fatalf("got err %v, want injected crash", err)
		}
		if handled != 2 {
			t.Fatalf("handled = %d, want 2 (after-crash must run the handler)", handled)
		}
		if !p.Down("w1") {
			t.Fatal("w1 should be down")
		}
		// While down, both directions fail without reaching the handler.
		if _, err := c.Call("echo.Ping", "x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("call from dead endpoint: %v", err)
		}
		if _, err := p.WrapClient("svc", "w1", net.Dial("w1")).Call("echo.Ping", "x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("call to dead endpoint: %v", err)
		}
		if handled != 2 {
			t.Fatalf("handled = %d, dead-call leaked through", handled)
		}
		// Heal after downFor: calls flow again, and the nth rule is spent.
		clk.Sleep(1200 * time.Millisecond)
		if p.Down("w1") {
			t.Fatal("w1 should have restarted")
		}
		if _, err := c.Call("echo.Ping", "x"); err != nil {
			t.Fatalf("call after restart: %v", err)
		}
		if got := p.Counters().Get(EventCrash + ":w1"); got != 1 {
			t.Fatalf("crash:w1 = %d, want exactly 1", got)
		}
	})
}

func TestPartitionOneWayAndCrashWindow(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Loopback())
		handled := 0
		net.Listen("svc", echoServer(&handled))

		p := NewPlan(1)
		p.Bind(clk)
		p.PartitionOneWay("a", "svc", 0, 500*time.Millisecond)
		p.CrashEndpoint("svc", time.Second, 2*time.Second)

		a, b := p.WrapClient("a", "svc", net.Dial("svc")), p.WrapClient("b", "svc", net.Dial("svc"))
		// In the partition window: a→svc cut, b→svc open (one-way).
		if _, err := a.Call("echo.Ping", "x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("partitioned call: %v", err)
		}
		if _, err := b.Call("echo.Ping", "x"); err != nil {
			t.Fatalf("unpartitioned caller failed: %v", err)
		}
		// After the window closes, a heals.
		clk.Sleep(600 * time.Millisecond)
		if _, err := a.Call("echo.Ping", "x"); err != nil {
			t.Fatalf("call after partition healed: %v", err)
		}
		// Inside the scripted crash window the service is dead to everyone.
		clk.Sleep(600 * time.Millisecond) // now at t=1.2s
		if _, err := b.Call("echo.Ping", "x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("call during crash window: %v", err)
		}
		clk.Sleep(time.Second) // past the window
		if _, err := b.Call("echo.Ping", "x"); err != nil {
			t.Fatalf("call after crash window: %v", err)
		}
		if got := p.Counters().Get(EventPartitioned); got != 1 {
			t.Fatalf("partitioned count = %d, want 1", got)
		}
		if got := p.Counters().Get(EventDeadCall); got != 1 {
			t.Fatalf("dead-call count = %d, want 1", got)
		}
	})
}

func TestWrapClientOverTCP(t *testing.T) {
	handled := 0
	srv := transport.NewServer()
	srv.Handle("echo.Ping", func(arg interface{}) (interface{}, error) {
		handled++
		return arg, nil
	})
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	inner, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}

	p := NewPlan(1)
	p.Bind(vclock.NewReal())
	p.DropCalls("client", "server", "echo.Ping", 1)
	c := p.WrapClient("client", "server", inner)
	defer c.Close()

	if _, err := c.Call("echo.Ping", "x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped TCP call: %v", err)
	}
	if handled != 0 {
		t.Fatal("dropped TCP call reached the handler")
	}
	// Swap the plan's rules out from under the wrapper: a fresh plan with
	// no rules must pass calls through untouched.
	p2 := NewPlan(1)
	p2.Bind(vclock.NewReal())
	c2 := p2.WrapClient("client", "server", inner)
	if _, err := c2.Call("echo.Ping", "hello"); err != nil {
		t.Fatalf("clean wrapped call: %v", err)
	}
	if handled != 1 {
		t.Fatalf("handled = %d, want 1", handled)
	}
}
