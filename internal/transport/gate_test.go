package transport

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// TestServiceGateQueueing checks the FIFO busy-server model on the virtual
// clock: N simultaneous arrivals at a gate with cost c finish at c, 2c, …,
// Nc — the last caller's latency is the whole queue.
func TestServiceGateQueueing(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	const n = 5
	const cost = 10 * time.Millisecond
	gate := NewServiceGate(clk, cost)
	latencies := make([]time.Duration, n)
	clk.Run(func() {
		g := vclock.NewGroup(clk)
		for i := 0; i < n; i++ {
			i := i
			g.Go(func() {
				start := clk.Now()
				gate.AdmitBy(time.Time{})
				latencies[i] = clk.Since(start)
			})
		}
		g.Wait()
	})
	var max time.Duration
	total := time.Duration(0)
	for _, l := range latencies {
		if l > max {
			max = l
		}
		total += l
	}
	if max != n*cost {
		t.Fatalf("slowest caller waited %v, want %v (full queue)", max, n*cost)
	}
	// Sum of 1c..Nc.
	if want := cost * n * (n + 1) / 2; total != want {
		t.Fatalf("total latency %v, want %v", total, want)
	}
}

// TestServiceGateIdleServer: arrivals spaced wider than the cost never
// queue — each pays exactly the service time.
func TestServiceGateIdleServer(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	const cost = 5 * time.Millisecond
	gate := NewServiceGate(clk, cost)
	clk.Run(func() {
		for i := 0; i < 3; i++ {
			clk.Sleep(20 * time.Millisecond)
			start := clk.Now()
			gate.AdmitBy(time.Time{})
			if got := clk.Since(start); got != cost {
				t.Errorf("arrival %d waited %v, want %v", i, got, cost)
			}
		}
	})
}

func TestServiceGateDisabledAndNil(t *testing.T) {
	NewServiceGate(vclock.NewReal(), 0).AdmitBy(time.Time{}) // no-op, returns immediately
	var g *ServiceGate
	g.AdmitBy(time.Time{}) // nil gate is a no-op too
}

// TestServerWrapGate wires the gate through Server.WrapPrefix on the
// in-proc binding: the virtual clock should advance by the service cost
// per call.
func TestServerWrapGate(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	const cost = 2 * time.Millisecond
	srv := newEchoServer()
	gate := NewServiceGate(clk, cost)
	srv.WrapPrefix("", func(_ string, next Handler) Handler {
		return func(arg interface{}) (interface{}, error) {
			gate.AdmitBy(time.Time{})
			return next(arg)
		}
	})
	n := NewNetwork(clk, Loopback())
	n.Listen("svc", srv)
	var elapsed time.Duration
	clk.Run(func() {
		c := n.Dial("svc")
		defer c.Close()
		start := clk.Now()
		for i := 0; i < 4; i++ {
			if _, err := c.Call("echo", echoArg{Msg: "x"}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
		elapsed = clk.Since(start)
	})
	if elapsed != 4*cost {
		t.Fatalf("4 gated calls took %v of virtual time, want %v", elapsed, 4*cost)
	}
}

func TestBackoffRetries(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var tries int
	var err error
	clk.Run(func() {
		err = Backoff{Attempts: 5, Initial: time.Millisecond, Clock: clk}.Do(func() error {
			tries++
			if tries < 3 {
				return errors.New("not yet")
			}
			return nil
		})
	})
	if err != nil || tries != 3 {
		t.Fatalf("Do: err = %v, tries = %d; want nil, 3", err, tries)
	}
	// Exhausted attempts surface the last error.
	tries = 0
	clk.Run(func() {
		err = Backoff{Attempts: 2, Initial: time.Millisecond, Clock: clk}.Do(func() error {
			tries++
			return errors.New("always")
		})
	})
	if err == nil || tries != 2 {
		t.Fatalf("exhausted Do: err = %v, tries = %d; want error, 2", err, tries)
	}
}

func TestDialTCPTimeout(t *testing.T) {
	// A live listener connects well within the timeout.
	l, err := ListenTCP("127.0.0.1:0", newEchoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialTCPTimeout(l.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial live listener: %v", err)
	}
	c.Close()
	// A dead port fails fast — no multi-minute kernel connect hang.
	start := time.Now()
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Skip("something is listening on 127.0.0.1:1")
	}
	if elapsed := time.Since(start); elapsed > 2*DefaultDialTimeout {
		t.Fatalf("dial to dead port took %v; timeout not applied", elapsed)
	}
}

func TestDialTCPRetrySucceedsAfterListenerAppears(t *testing.T) {
	srv := newEchoServer()
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	// The listener is gone; dial in the background while we re-listen on
	// the same port.
	done := make(chan error, 1)
	go func() {
		c, err := DialTCPRetry(addr, Backoff{Attempts: 20, Initial: 10 * time.Millisecond})
		if err == nil {
			defer c.Close()
			_, err = c.Call("echo", echoArg{Msg: "hi"})
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	l2, err := ListenTCP(addr, srv)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	if err := <-done; err != nil {
		t.Fatalf("retry dial: %v", err)
	}
}
