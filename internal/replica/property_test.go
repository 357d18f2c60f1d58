package replica_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/replica"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestReplicaConvergenceProperty is the replication protocol's core
// invariant, checked under seeded interleavings: whatever mix of appends,
// takes, replication-link partitions, queue overflows, crashes and
// promotions a schedule produces, after the stream drains the primary's
// and the standby's space states are identical — so the standby that then
// promotes serves exactly the state the dead primary acknowledged.
//
// Each seed drives several generations: random ops against the current
// primary while a faults.Plan partitions the replication link, heal,
// drain, compare, kill, promote — and the promoted node becomes the next
// generation's primary with a fresh standby attached via catch-up. The
// same seed replays the same schedule (virtual clock + seeded plan).
func TestReplicaConvergenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runConvergence(t, seed) })
	}
}

const (
	convRounds = 3
	convOps    = 30
	convFT     = 5 * time.Second // failover timeout: longer than any partition window
)

func runConvergence(t *testing.T, seed int64) {
	clk := vclock.NewVirtual(testEpoch)
	rng := rand.New(rand.NewSource(seed))
	net := transport.NewNetwork(clk, transport.Model{})
	plan := faults.NewPlan(seed)
	plan.Bind(clk)
	ctrs := metrics.NewCounters()

	// Half the seeds run with a tiny ship queue so partitions overflow it
	// and the snapshot-resync path is part of the schedule too.
	maxQ := 0
	if seed%2 == 1 {
		maxQ = 8
	}

	newNode := func(name string) (*space.Local, *replica.SwitchSink, *transport.Server) {
		l := space.NewLocal(clk)
		sw := replica.NewSwitchSink()
		if err := l.TS.AttachJournal(tuplespace.NewJournalSink(sw)); err != nil {
			t.Fatalf("%s journal: %v", name, err)
		}
		srv := transport.NewServer()
		net.Listen(name, srv)
		return l, sw, srv
	}

	clk.Run(func() {
		g := vclock.NewGroup(clk)

		// Generation 0's primary.
		paddr := "node0"
		local, psw, _ := newNode(paddr)
		p := replica.NewPrimary(local, replica.PrimaryOptions{
			Clock: clk, Ack: replica.AckAsync, MaxQueue: maxQ, Counters: ctrs,
		})
		psw.Set(p.Sink())
		wrapped := p.Wrap(local)
		epoch := uint64(1)

		for round := 0; round < convRounds; round++ {
			// Fresh standby for this generation.
			baddr := fmt.Sprintf("node%d", round+1)
			blocal, bsw, bsrv := newNode(baddr)
			b := replica.NewBackup(blocal, replica.BackupOptions{
				Clock: clk, Epoch: epoch, FailoverTimeout: convFT, Counters: ctrs,
			})
			b.Bind(bsrv)
			p.SetMirror(plan.WrapClient(paddr, baddr, net.Dial(baddr)))
			g.Go(p.Run)
			g.Go(b.Run)

			// One seeded partition window on the replication link, shorter
			// than the failover timeout so it cannot promote by itself.
			base := clk.Now().Sub(testEpoch)
			pStart := base + time.Duration(rng.Intn(1500))*time.Millisecond
			pEnd := pStart + time.Duration(500+rng.Intn(2500))*time.Millisecond
			plan.PartitionOneWay(paddr, baddr, pStart, pEnd)

			// Seeded op mix against the serving primary. Async mode: the
			// partition degrades shipping, never the client ops.
			for i := 0; i < convOps; i++ {
				if rng.Intn(5) == 0 {
					if _, err := wrapped.TakeIfExists(kv{}, nil); err != nil {
						t.Fatalf("round %d take %d: %v", round, i, err)
					}
				} else {
					e := kv{K: fmt.Sprintf("r%d", round), N: rng.Intn(1000)}
					if _, err := wrapped.Write(e, nil, time.Hour); err != nil {
						t.Fatalf("round %d write %d: %v", round, i, err)
					}
				}
				clk.Sleep(time.Duration(20+rng.Intn(130)) * time.Millisecond)
			}

			// Heal and drain: past the partition window the pump reships
			// (or resyncs) until the standby is converged.
			if past := pEnd - clk.Now().Sub(testEpoch); past > 0 {
				clk.Sleep(past + 100*time.Millisecond)
			}
			equal := func() bool {
				a, bb := entries(t, local), entries(t, blocal)
				if len(a) != len(bb) {
					return false
				}
				for e, n := range a {
					if bb[e] != n {
						return false
					}
				}
				return true
			}
			drained := false
			for i := 0; i < 50; i++ {
				if p.Lag() == 0 && !p.Degraded() && equal() {
					drained = true
					break
				}
				clk.Sleep(500 * time.Millisecond)
			}
			if !drained {
				// THE invariant, violated: report the diff.
				sameEntries(t, fmt.Sprintf("round %d drained", round), entries(t, local), entries(t, blocal))
				t.Fatalf("round %d: stream never drained (lag %d, degraded %v)", round, p.Lag(), p.Degraded())
			}

			// Crash the primary; the standby's monitor promotes on
			// heartbeat silence with exactly one epoch bump.
			p.Kill()
			for i := 0; i < 40 && !b.Promoted(); i++ {
				clk.Sleep(500 * time.Millisecond)
			}
			if !b.Promoted() {
				t.Fatalf("round %d: standby never promoted", round)
			}
			if got := b.Epoch(); got != epoch+1 {
				t.Fatalf("round %d: promoted epoch %d, want %d", round, got, epoch+1)
			}
			epoch = b.Epoch()
			sameEntries(t, fmt.Sprintf("round %d promoted", round), entries(t, local), entries(t, blocal))
			// One identity: the same entries under the same ids with the
			// same expiries, not only the same values.
			if a, bb := state(t, local), state(t, blocal); !reflect.DeepEqual(a, bb) {
				t.Fatalf("round %d promoted: same values under different ids (%d records on the primary, %d on the standby)", round, len(a), len(bb))
			}

			// The promoted node is the next generation's primary; its old
			// identity keeps the ring position, the address moves on.
			paddr, local = baddr, blocal
			p = replica.NewPrimary(blocal, replica.PrimaryOptions{
				Clock: clk, Epoch: epoch, Ack: replica.AckAsync, MaxQueue: maxQ, Counters: ctrs,
			})
			bsw.Set(p.Sink())
			wrapped = p.Wrap(blocal)
		}
		p.Stop()
		g.Wait()
	})

	if n := ctrs.Get(metrics.CounterReplPromotions); n != convRounds {
		t.Fatalf("promotions = %d, want %d", n, convRounds)
	}
	if ctrs.Get(metrics.CounterReplShipped) == 0 && ctrs.Get(metrics.CounterReplResyncs) == 0 {
		t.Fatal("schedule never replicated anything")
	}
}

// state is l's entries as the write records a snapshot holds, in id order.
func state(t *testing.T, l *space.Local) [][]byte {
	t.Helper()
	recs, err := l.TS.EncodeStateWhere(nil)
	if err != nil {
		t.Fatalf("EncodeStateWhere: %v", err)
	}
	return recs
}

// TestReplicaConvergenceDeterminism: the same seed must produce the same
// final state — the property that makes a failing seed a bug report.
func TestReplicaConvergenceDeterminism(t *testing.T) {
	final := func() map[kv]int {
		clk := vclock.NewVirtual(testEpoch)
		rng := rand.New(rand.NewSource(99))
		net := transport.NewNetwork(clk, transport.Model{})
		plan := faults.NewPlan(99)
		plan.Bind(clk)
		plan.PartitionOneWay("p", "b", 500*time.Millisecond, 2*time.Second)

		var out map[kv]int
		clk.Run(func() {
			local := space.NewLocal(clk)
			sw := replica.NewSwitchSink()
			if err := local.TS.AttachJournal(tuplespace.NewJournalSink(sw)); err != nil {
				t.Fatalf("journal: %v", err)
			}
			blocal := space.NewLocal(clk)
			bsrv := transport.NewServer()
			net.Listen("b", bsrv)
			p := replica.NewPrimary(local, replica.PrimaryOptions{Clock: clk, Ack: replica.AckAsync})
			sw.Set(p.Sink())
			b := replica.NewBackup(blocal, replica.BackupOptions{Clock: clk, FailoverTimeout: convFT})
			b.Bind(bsrv)
			p.SetMirror(plan.WrapClient("p", "b", net.Dial("b")))
			g := vclock.NewGroup(clk)
			g.Go(p.Run)
			g.Go(b.Run)
			w := p.Wrap(local)
			for i := 0; i < 40; i++ {
				if rng.Intn(4) == 0 {
					_, _ = w.TakeIfExists(kv{}, nil)
				} else if _, err := w.Write(kv{K: "d", N: rng.Intn(100)}, nil, time.Hour); err != nil {
					t.Fatalf("write: %v", err)
				}
				clk.Sleep(time.Duration(10+rng.Intn(90)) * time.Millisecond)
			}
			for i := 0; i < 50 && (p.Lag() > 0 || p.Degraded()); i++ {
				clk.Sleep(500 * time.Millisecond)
			}
			p.Kill()
			for i := 0; i < 40 && !b.Promoted(); i++ {
				clk.Sleep(500 * time.Millisecond)
			}
			g.Wait()
			out = entries(t, blocal)
		})
		return out
	}
	a, b := final(), final()
	if len(a) == 0 {
		t.Fatal("empty final state")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\nrun1: %v\nrun2: %v", a, b)
	}
}
