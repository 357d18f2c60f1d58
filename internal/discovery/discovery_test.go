package discovery

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry(vclock.NewReal())
	r.Register(ServiceItem{Name: "space", Address: "host:1", Attributes: map[string]string{"type": "javaspace", "job": "mc"}}, 0)
	r.Register(ServiceItem{Name: "snmp", Address: "host:2", Attributes: map[string]string{"type": "snmp"}}, 0)

	got := r.Lookup(map[string]string{"type": "javaspace"})
	if len(got) != 1 || got[0].Address != "host:1" {
		t.Fatalf("lookup = %+v", got)
	}
	if all := r.Lookup(nil); len(all) != 2 {
		t.Fatalf("wildcard lookup = %+v", all)
	}
	if none := r.Lookup(map[string]string{"type": "nope"}); len(none) != 0 {
		t.Fatalf("expected empty, got %+v", none)
	}
}

func TestLookupOrderIsRegistrationOrder(t *testing.T) {
	r := NewRegistry(vclock.NewReal())
	for _, n := range []string{"a", "b", "c"} {
		r.Register(ServiceItem{Name: n, Attributes: map[string]string{"k": "v"}}, 0)
	}
	got := r.Lookup(map[string]string{"k": "v"})
	if len(got) != 3 || got[0].Name != "a" || got[2].Name != "c" {
		t.Fatalf("order = %+v", got)
	}
}

func TestLeaseExpiryRemovesService(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	r := NewRegistry(clk)
	clk.Run(func() {
		id := r.Register(ServiceItem{Name: "s"}, 50*time.Millisecond)
		clk.Sleep(100 * time.Millisecond)
		if n := r.Len(); n != 0 {
			t.Errorf("len = %d after expiry", n)
		}
		if err := r.Renew(id, time.Second); !errors.Is(err, ErrNotRegistered) {
			t.Errorf("renew err = %v", err)
		}
	})
}

func TestRenewKeepsServiceAlive(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	r := NewRegistry(clk)
	clk.Run(func() {
		id := r.Register(ServiceItem{Name: "s"}, 50*time.Millisecond)
		for i := 0; i < 4; i++ {
			clk.Sleep(30 * time.Millisecond)
			if err := r.Renew(id, 50*time.Millisecond); err != nil {
				t.Errorf("renew %d: %v", i, err)
			}
		}
		if n := r.Len(); n != 1 {
			t.Errorf("len = %d, want 1", n)
		}
	})
}

func TestCancel(t *testing.T) {
	r := NewRegistry(vclock.NewReal())
	id := r.Register(ServiceItem{Name: "s"}, 0)
	if err := r.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(id); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("double cancel err = %v", err)
	}
	if r.Len() != 0 {
		t.Fatal("registry not empty")
	}
}

func TestRemoteLookupService(t *testing.T) {
	clk := vclock.NewReal()
	reg := NewRegistry(clk)
	srv := transport.NewServer()
	NewService(reg, srv)
	net := transport.NewNetwork(clk, transport.Loopback())
	net.Listen(WellKnownAddress, srv)

	c := NewClient(net.Dial(WellKnownAddress))
	id, err := c.Register(ServiceItem{Name: "space", Address: "spaces/0", Attributes: map[string]string{"type": "javaspace"}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	items, err := c.Lookup(map[string]string{"type": "javaspace"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Address != "spaces/0" {
		t.Fatalf("items = %+v", items)
	}
	if err := c.Renew(id, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if items, err := c.Lookup(map[string]string{"type": "javaspace"}); err != nil || len(items) != 0 {
		t.Fatalf("lookup after cancel = %+v, %v", items, err)
	}
}

func TestKeepAliveRenewsUntilStopped(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := NewRegistry(clk)
	srv := transport.NewServer()
	NewService(reg, srv)
	net := transport.NewNetwork(clk, transport.Loopback())
	net.Listen(WellKnownAddress, srv)
	c := NewClient(net.Dial(WellKnownAddress))

	clk.Run(func() {
		id, err := c.Register(ServiceItem{Name: "svc", Attributes: map[string]string{"t": "x"}}, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ka := newKeepAlive(c, clk, id, 300*time.Millisecond)
		clk.Go(ka.Run)
		// Well past the original lease, the service is still registered.
		clk.Sleep(2 * time.Second)
		if reg.Len() != 1 {
			t.Errorf("service expired despite keep-alive")
		}
		ka.Stop()
		// With renewal stopped, the lease ages out.
		clk.Sleep(time.Second)
		if reg.Len() != 0 {
			t.Errorf("service still registered after keep-alive stopped")
		}
		if ka.Err() != nil {
			t.Errorf("unexpected error: %v", ka.Err())
		}
	})
}

// renewCounter is a renewer that counts renewals.
type renewCounter struct{ n atomic.Int32 }

func (r *renewCounter) Renew(uint64, time.Duration) error { r.n.Add(1); return nil }

func TestKeepAliveStopBeforeRunNeverRenews(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var r renewCounter
	ka := newKeepAlive(&r, clk, 1, 300*time.Millisecond)
	ka.Stop()
	clk.Run(func() {
		g := vclock.NewGroup(clk)
		g.Go(ka.Run)
		g.Wait()
	})
	if n := r.n.Load(); n != 0 {
		t.Fatalf("stopped keep-alive renewed %d times, want 0", n)
	}
	if now := clk.Now(); !now.Equal(time.Unix(0, 0)) {
		t.Fatalf("stopped keep-alive parked until %v", now)
	}
	if ka.Err() != nil {
		t.Fatalf("unexpected error: %v", ka.Err())
	}
}

func TestKeepAliveEndsOnRenewFailure(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := NewRegistry(clk)
	srv := transport.NewServer()
	NewService(reg, srv)
	net := transport.NewNetwork(clk, transport.Loopback())
	net.Listen(WellKnownAddress, srv)
	c := NewClient(net.Dial(WellKnownAddress))

	clk.Run(func() {
		id, err := c.Register(ServiceItem{Name: "svc"}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Cancel(id); err != nil {
			t.Fatal(err)
		}
		ka := newKeepAlive(c, clk, id, time.Second)
		clk.Go(ka.Run) // first renewal fails; the loop must end, not hang
		clk.Sleep(2 * time.Second)
		if ka.Err() == nil {
			t.Error("renewal failure not surfaced")
		}
	})
}
