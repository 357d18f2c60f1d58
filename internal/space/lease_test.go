package space_test

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// leaseEntry is a keyed entry whose key Go never copies (one byte), so a
// write's allocations are the entry's and the store's alone.
type leaseEntry struct {
	Key string `space:"index"`
	N   int
}

func init() { transport.RegisterType(leaseEntry{}) }

// leaseChain is one production chain a write comes back through: inner,
// the innermost handle, and the layers built over it from the inside out.
type leaseChain struct {
	name   string
	inner  space.Space
	layers []func(space.Space) space.Space
	// primary, when set, is the replica.Primary one of the layers wraps;
	// reg, the registry the outermost layer times ops into.
	primary *replica.Primary
	reg     *metrics.Registry
}

// leaseChains builds the chains every production write takes: a client's
// bare proxy (the pair benchmarks), a worker's instrumented router over a
// proxy, and the master's instrumented router over its shard's primary
// wrap of the local space.
func leaseChains(t *testing.T, clk vclock.Clock) []leaseChain {
	t.Helper()
	net := transport.NewNetwork(clk, transport.Loopback())
	srv := transport.NewServer()
	space.NewService(space.NewLocal(clk), srv)
	net.Listen("shard", srv)
	router := func(inner space.Space) space.Space {
		r, err := shard.New(shard.Options{Clock: clk, Seed: "lease"}, []shard.Shard{{ID: "shard", Space: inner}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	instrument := func(reg *metrics.Registry) func(space.Space) space.Space {
		return func(inner space.Space) space.Space {
			return obs.InstrumentSpace(inner, clk, reg, metrics.HistSpacePrefix)
		}
	}
	local := space.NewLocal(clk)
	primary := replica.NewPrimary(local, replica.PrimaryOptions{Clock: clk})
	worker, master := metrics.NewRegistry(), metrics.NewRegistry()
	return []leaseChain{
		{name: "proxy", inner: space.NewProxy(net.Dial("shard"))},
		{name: "worker", inner: space.NewProxy(net.Dial("shard")), reg: worker, layers: []func(space.Space) space.Space{router, instrument(worker)}},
		{name: "master", inner: local, reg: master, primary: primary, layers: []func(space.Space) space.Space{primary.Wrap, router, instrument(master)}},
	}
}

// TestLeaseIsAValueThroughEveryChain: a write through each production
// chain allocates what the innermost handle's write does, so no layer
// builds a lease handle; Renew and Cancel enter at the outermost layer and
// pass through every one — the instrument counts the cancel, and a killed
// primary's wrap refuses it — and reach the entry.
func TestLeaseIsAValueThroughEveryChain(t *testing.T) {
	clk := vclock.NewReal()
	for _, c := range leaseChains(t, clk) {
		t.Run(c.name, func(t *testing.T) {
			sp := c.inner
			for _, wrap := range c.layers {
				sp = wrap(sp)
			}
			write := func(s space.Space) func() {
				return func() {
					if _, err := s.Write(leaseEntry{Key: "k", N: 1}, nil, time.Hour); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(sp)() // first use defines the types on a connection
			if !space.RaceEnabled {
				bare := testing.AllocsPerRun(100, write(c.inner))
				chained := testing.AllocsPerRun(100, write(sp))
				t.Logf("a write allocates %.1f through the chain, %.1f through its innermost handle", chained, bare)
				if chained != bare {
					t.Errorf("a write allocates %.1f through the chain, %.1f through its innermost handle: a layer allocates", chained, bare)
				}
			}

			l, err := sp.Write(leaseEntry{Key: "l"}, nil, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Renew(2 * time.Hour); err != nil {
				t.Fatalf("renew: %v", err)
			}
			if err := l.Cancel(); err != nil {
				t.Fatalf("cancel: %v", err)
			}
			if n, err := sp.Count(leaseEntry{Key: "l"}); err != nil || n != 0 {
				t.Fatalf("count after cancel = %d, %v; want 0", n, err)
			}
			if err := l.Cancel(); !errors.Is(err, tuplespace.ErrLeaseExpired) {
				t.Fatalf("second cancel: %v, want ErrLeaseExpired", err)
			}
			if c.reg != nil {
				if n := c.reg.Histogram(metrics.HistSpacePrefix + space.OpCancel.String()).Count(); n != 2 {
					t.Fatalf("the outermost layer timed %d cancels, want 2", n)
				}
			}
			if c.primary != nil {
				l, err := sp.Write(leaseEntry{Key: "p"}, nil, time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				c.primary.Kill()
				if err := l.Cancel(); !errors.Is(err, tuplespace.ErrClosed) {
					t.Fatalf("cancel through a killed primary's wrap: %v, want ErrClosed", err)
				}
			}
		})
	}
	var zero space.Lease
	if err := zero.Cancel(); !errors.Is(err, tuplespace.ErrLeaseExpired) {
		t.Fatalf("the zero lease's cancel: %v, want ErrLeaseExpired", err)
	}
}
