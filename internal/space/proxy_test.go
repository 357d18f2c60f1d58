package space

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestSentinelsCrossTheWire: every tuplespace sentinel a handler returns,
// bare or wrapped, reaches a Proxy's caller as the sentinel itself over
// both bindings, while a handler error that only quotes a sentinel's text
// is not taken for it.
func TestSentinelsCrossTheWire(t *testing.T) {
	sentinels := []error{
		tuplespace.ErrTimeout, tuplespace.ErrNoMatch, tuplespace.ErrTxnInactive, tuplespace.ErrLeaseExpired,
		tuplespace.ErrClosed, tuplespace.ErrNotStruct, tuplespace.ErrOverloaded, tuplespace.ErrDeadlineExpired,
	}
	var mu sync.Mutex
	var fail error // what the handler returns next
	srv := transport.NewServer()
	srv.Handle(OpReadIfExists.Method(), func(interface{}) (interface{}, error) {
		mu.Lock()
		defer mu.Unlock()
		return nil, fail
	})
	answer := func(sp Space, err error) error {
		mu.Lock()
		fail = err
		mu.Unlock()
		_, got := sp.ReadIfExists(job{Name: "x"}, nil)
		return got
	}

	clk := vclock.NewReal()
	network := transport.NewNetwork(clk, transport.Loopback())
	network.Listen("space", srv)
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tc, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		c    transport.Client
	}{{"inproc", network.Dial("space")}, {"tcp", tc}} {
		p := NewProxy(b.c)
		for _, s := range sentinels {
			if got := answer(p, s); got != s {
				t.Errorf("%s: handler returned %q, caller got %v", b.name, s, got)
			}
			if got := answer(p, fmt.Errorf("space: unknown txn 7: %w", s)); got != s {
				t.Errorf("%s: handler wrapped %q, caller got %v", b.name, s, got)
			}
			if got := answer(p, errors.New("quoting "+s.Error())); errors.Is(got, s) {
				t.Errorf("%s: an error quoting %q was taken for it: %v", b.name, s, got)
			}
		}
		p.Close()
	}
}

// TestListenerCloseLeavesParkedTake: closing a TCP listener while a
// client's Take is parked at the service — no entry matches and the take
// has no timeout — returns at once. The client's call fails with its
// connection; the parked handler ends when the store wakes it, and its
// reply goes nowhere.
func TestListenerCloseLeavesParkedTake(t *testing.T) {
	clk := vclock.NewReal()
	local := NewLocal(clk)
	defer local.Close() // wakes the parked handler
	srv := transport.NewServer()
	NewService(local, srv)
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(c)
	defer p.Close()

	taken := make(chan error, 1)
	go func() {
		_, err := p.Take(job{Name: "never written"}, nil, 0)
		taken <- err
	}()
	for start := time.Now(); local.TS.Stats().Waiting == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the take never parked")
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close has not returned 3 s after it was called behind a parked take")
	}
	select {
	case err := <-taken:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("parked take ended with %v, want ErrClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the parked take's call outlived its connection")
	}
}
