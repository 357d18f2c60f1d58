package replica_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/replica"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

var testEpoch = time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC)

// kv is the test entry type replicated across the pair.
type kv struct {
	K string
	N int
}

func init() { transport.RegisterType(kv{}) }

// pair assembles one primary/backup replication pair on an in-process
// network — the same wiring as shardhost.Host, without the host.
type pair struct {
	clk     vclock.Clock
	net     *transport.Network
	ctrs    *metrics.Counters
	local   *space.Local // primary's space
	wrapped space.Space  // primary's gated handle
	p       *replica.Primary
	blocal  *space.Local // standby's space
	bsw     *replica.SwitchSink
	b       *replica.Backup
}

type pairOptions struct {
	ack     replica.AckMode
	maxQ    int
	ft      time.Duration
	lease   func() bool
	fenced  func(uint64)
	promote func(uint64)
}

func newPair(t *testing.T, clk vclock.Clock, net *transport.Network, opts pairOptions) *pair {
	t.Helper()
	ctrs := metrics.NewCounters()

	psw := replica.NewSwitchSink()
	local := space.NewLocal(clk)
	if err := local.TS.AttachJournal(tuplespace.NewJournalSink(psw)); err != nil {
		t.Fatalf("primary journal: %v", err)
	}

	bsw := replica.NewSwitchSink()
	blocal := space.NewLocal(clk)
	if err := blocal.TS.AttachJournal(tuplespace.NewJournalSink(bsw)); err != nil {
		t.Fatalf("backup journal: %v", err)
	}
	bsrv := transport.NewServer()
	net.Listen("backup", bsrv)

	p := replica.NewPrimary(local, replica.PrimaryOptions{
		Clock:    clk,
		Ack:      opts.ack,
		MaxQueue: opts.maxQ,
		OnFenced: opts.fenced,
		Counters: ctrs,
	})
	psw.Set(p.Sink())
	p.SetMirror(net.Dial("backup"))

	b := replica.NewBackup(blocal, replica.BackupOptions{
		Clock:           clk,
		FailoverTimeout: opts.ft,
		LeaseExpired:    opts.lease,
		OnPromote:       opts.promote,
		Counters:        ctrs,
	})
	b.Bind(bsrv)

	return &pair{
		clk: clk, net: net, ctrs: ctrs,
		local: local, wrapped: p.Wrap(local), p: p,
		blocal: blocal, bsw: bsw, b: b,
	}
}

// entries collects every kv currently in sp, as a multiset keyed by value.
func entries(t *testing.T, sp space.Space) map[kv]int {
	t.Helper()
	all, err := sp.ReadAll(kv{}, nil, 1<<20)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	out := make(map[kv]int)
	for _, e := range all {
		out[e.(kv)]++
	}
	return out
}

func sameEntries(t *testing.T, what string, a, b map[kv]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d distinct entries on primary, %d on backup\nprimary: %v\nbackup:  %v", what, len(a), len(b), a, b)
	}
	for e, n := range a {
		if b[e] != n {
			t.Fatalf("%s: entry %v ×%d on primary, ×%d on backup", what, e, n, b[e])
		}
	}
}

// TestSyncMirrorsMutations: in sync mode every acknowledged mutation is
// already applied on the standby — writes and takes through the wrapped
// handle leave the two spaces identical with zero lag.
func TestSyncMirrorsMutations(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: replica.AckSync})
		for i := 0; i < 20; i++ {
			if _, err := pr.wrapped.Write(kv{K: "w", N: i}, nil, time.Hour); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		for i := 0; i < 5; i++ {
			if _, err := pr.wrapped.TakeIfExists(kv{K: "w", N: i}, nil); err != nil {
				t.Fatalf("take %d: %v", i, err)
			}
		}
		if lag := pr.p.Lag(); lag != 0 {
			t.Fatalf("sync primary reports lag %d", lag)
		}
		sameEntries(t, "after sync mutations", entries(t, pr.local), entries(t, pr.blocal))
		if got := len(entries(t, pr.blocal)); got != 15 {
			t.Fatalf("backup holds %d entries, want 15", got)
		}
	})
}

// TestAsyncDrainsThroughPump: async writes ack before shipping; the pump
// drains the backlog within a heartbeat interval.
func TestAsyncDrainsThroughPump(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: replica.AckAsync})
		g := vclock.NewGroup(clk)
		g.Go(pr.p.Run)
		converge := func(want int, what string) {
			for i := 0; ; i++ {
				if n, _ := pr.blocal.Count(kv{}); n == want && pr.p.Lag() == 0 {
					return
				}
				if i >= 20 {
					n, _ := pr.blocal.Count(kv{})
					t.Fatalf("%s: standby stuck at %d/%d entries (lag %d)", what, n, want, pr.p.Lag())
				}
				clk.Sleep(time.Second)
			}
		}
		// Writes before the first ship are covered by the attach-time
		// snapshot push, not the queue.
		for i := 0; i < 10; i++ {
			if _, err := pr.wrapped.Write(kv{K: "a", N: i}, nil, time.Hour); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		converge(10, "initial sync")
		// Past the resync the incremental queue carries the stream: writes
		// ack immediately and the pump drains the backlog.
		for i := 10; i < 15; i++ {
			if _, err := pr.wrapped.Write(kv{K: "a", N: i}, nil, time.Hour); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		converge(15, "async drain")
		sameEntries(t, "after async drain", entries(t, pr.local), entries(t, pr.blocal))
		if pr.ctrs.Get(metrics.CounterReplShipped) == 0 {
			t.Fatal("incremental stream never shipped a record")
		}
		pr.p.Stop()
		g.Wait()
	})
}

// TestEpochFencingDeposesPrimary: once the standby promotes, the old
// primary's next replication RPC comes back ErrFenced — sync mutations
// through it fail permanently and OnFenced fires exactly once.
func TestEpochFencingDeposesPrimary(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		var fencedEpochs []uint64
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{
			ack:    replica.AckSync,
			fenced: func(e uint64) { fencedEpochs = append(fencedEpochs, e) },
		})
		if _, err := pr.wrapped.Write(kv{K: "pre", N: 1}, nil, time.Hour); err != nil {
			t.Fatalf("pre-promotion write: %v", err)
		}
		epoch, flipped := pr.b.Promote()
		if !flipped || epoch != 2 {
			t.Fatalf("Promote = (%d, %v), want (2, true)", epoch, flipped)
		}
		for i := 0; i < 2; i++ {
			_, err := pr.wrapped.Write(kv{K: "post", N: i}, nil, time.Hour)
			if !errors.Is(err, replica.ErrFenced) {
				t.Fatalf("deposed write %d: err = %v, want fenced", i, err)
			}
		}
		if !pr.p.Fenced() {
			t.Fatal("primary not marked fenced")
		}
		if len(fencedEpochs) != 1 || fencedEpochs[0] != 1 {
			t.Fatalf("OnFenced calls = %v, want exactly one at the deposed epoch 1", fencedEpochs)
		}
		if n := pr.ctrs.Get(metrics.CounterReplFenced); n == 0 {
			t.Fatal("fenced counter never incremented")
		}
		// The promoted standby must not have seen the fenced writes.
		if got := entries(t, pr.blocal); len(got) != 1 {
			t.Fatalf("backup entries after fencing = %v, want only the pre-promotion write", got)
		}
	})
}

// TestFencedFlushFails: a primary that has learned it was deposed must
// fail Flush with ErrFenced instead of returning nil — Flush is the
// sync-mode confirm path, and a mutation that raced the fencing signal
// (gate passed, then the pump's heartbeat saw the higher epoch before
// confirm ran) must never be acknowledged: its record was dropped, not
// replicated, so the ack would hand the client a write that exists only
// on the deposed primary.
func TestFencedFlushFails(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: replica.AckSync})
		if _, err := pr.wrapped.Write(kv{K: "pre", N: 1}, nil, time.Hour); err != nil {
			t.Fatalf("pre-promotion write: %v", err)
		}
		if _, flipped := pr.b.Promote(); !flipped {
			t.Fatal("backup did not promote")
		}
		// The next ship discovers the fencing.
		if _, err := pr.wrapped.Write(kv{K: "post", N: 1}, nil, time.Hour); !errors.Is(err, replica.ErrFenced) {
			t.Fatalf("deposed write: err = %v, want fenced", err)
		}
		// Every subsequent confirm keeps failing: an empty-queue Flush on
		// a fenced primary is ErrFenced, never a silent nil.
		if err := pr.p.Flush(); !errors.Is(err, replica.ErrFenced) {
			t.Fatalf("fenced Flush = %v, want ErrFenced", err)
		}
	})
}

// TestOverflowForcesResync: a primary whose unshipped queue overflows
// discards it and recovers by pushing a full snapshot, after which the
// standby is converged again.
func TestOverflowForcesResync(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{
			ack:  replica.AckAsync,
			maxQ: 4,
		})
		// No pump running: the queue can only grow, and 12 writes blow
		// through MaxQueue=4.
		for i := 0; i < 12; i++ {
			if _, err := pr.wrapped.Write(kv{K: "o", N: i}, nil, time.Hour); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := pr.p.Flush(); err != nil {
			t.Fatalf("flush after overflow: %v", err)
		}
		if n := pr.ctrs.Get(metrics.CounterReplResyncs); n == 0 {
			t.Fatal("overflow did not trigger a snapshot resync")
		}
		sameEntries(t, "after resync", entries(t, pr.local), entries(t, pr.blocal))
		if lag := pr.p.Lag(); lag != 0 {
			t.Fatalf("lag %d after resync", lag)
		}
	})
}

// callCounter is a mirror that counts the calls reaching it.
type callCounter struct{ n atomic.Int32 }

func (c *callCounter) Call(string, interface{}) (interface{}, error) {
	c.n.Add(1)
	return nil, errors.New("unreachable")
}
func (c *callCounter) Close() error { return nil }

// TestKillBeforeRunNeverHeartbeats: a primary killed before its pump
// starts ends the pump at once, without a lease renewal or a call to the
// backup, and without parking.
func TestKillBeforeRunNeverHeartbeats(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	var mirror callCounter
	var renewals atomic.Int32
	p := replica.NewPrimary(space.NewLocal(clk), replica.PrimaryOptions{
		Clock: clk,
		Renew: func() { renewals.Add(1) },
	})
	p.SetMirror(&mirror)
	p.Kill()
	clk.Run(func() {
		g := vclock.NewGroup(clk)
		g.Go(p.Run)
		g.Wait()
	})
	if calls, renewed := mirror.n.Load(), renewals.Load(); calls != 0 || renewed != 0 {
		t.Fatalf("killed pump made %d backup calls and %d renewals, want 0 and 0", calls, renewed)
	}
	if now := clk.Now(); !now.Equal(testEpoch) {
		t.Fatalf("killed pump parked until %v", now.Sub(testEpoch))
	}
}

// TestPromoteBeforeRunRecordsNoDetect: a standby promoted before its
// monitor starts ends the monitor at once, with no failure detection.
func TestPromoteBeforeRunRecordsNoDetect(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	var events atomic.Int32
	b := replica.NewBackup(space.NewLocal(clk), replica.BackupOptions{
		Clock:           clk,
		FailoverTimeout: 2 * time.Second,
		OnEvent:         func(string, string) { events.Add(1) },
	})
	if _, flipped := b.Promote(); !flipped {
		t.Fatal("Promote did not flip")
	}
	clk.Run(func() {
		g := vclock.NewGroup(clk)
		g.Go(b.Run)
		g.Wait()
	})
	if n := events.Load(); n != 0 {
		t.Fatalf("promoted standby's monitor recorded %d events, want 0", n)
	}
	if now := clk.Now(); !now.Equal(testEpoch) {
		t.Fatalf("promoted standby's monitor parked until %v", now.Sub(testEpoch))
	}
}

// TestHeartbeatSilencePromotes: kill the primary mid-stream and the
// monitor promotes the standby within the failover timeout.
func TestHeartbeatSilencePromotes(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		promoted := make(chan uint64, 1)
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{
			ack:     replica.AckSync,
			ft:      2 * time.Second,
			promote: func(e uint64) { promoted <- e },
		})
		g := vclock.NewGroup(clk)
		g.Go(pr.p.Run)
		g.Go(pr.b.Run)

		clk.Sleep(1200 * time.Millisecond)
		if _, err := pr.wrapped.Write(kv{K: "h", N: 1}, nil, time.Hour); err != nil {
			t.Fatalf("write: %v", err)
		}
		if pr.b.Promoted() {
			t.Fatal("standby promoted while heartbeats were flowing")
		}
		pr.p.Kill()
		clk.Sleep(4 * time.Second)
		if !pr.b.Promoted() {
			t.Fatal("standby never promoted after heartbeat silence")
		}
		select {
		case e := <-promoted:
			if e != 2 {
				t.Fatalf("promoted epoch = %d, want 2", e)
			}
		default:
			t.Fatal("OnPromote never fired")
		}
		pr.b.Stop()
		g.Wait()
		// The standby kept the state the primary had shipped.
		if got := entries(t, pr.blocal); got[kv{K: "h", N: 1}] != 1 {
			t.Fatalf("promoted standby lost replicated state: %v", got)
		}
	})
}

// TestLeaseExpiryPromotesEarly: a lapsed lookup-registration lease
// promotes the standby well before the heartbeat-silence window, even
// while heartbeats keep arriving.
func TestLeaseExpiryPromotesEarly(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		var leaseGone atomic.Bool
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{
			ack:   replica.AckSync,
			ft:    20 * time.Second, // checks every 5s; silence alone would take 20s
			lease: leaseGone.Load,
		})
		g := vclock.NewGroup(clk)
		g.Go(pr.p.Run) // heartbeats keep flowing throughout
		g.Go(pr.b.Run)

		clk.Sleep(3 * time.Second)
		if pr.b.Promoted() {
			t.Fatal("standby promoted with a live lease")
		}
		leaseGone.Store(true)
		clk.Sleep(6 * time.Second) // just over one check
		if !pr.b.Promoted() {
			t.Fatal("standby ignored the lapsed lease")
		}
		if now := clk.Now().Sub(testEpoch); now >= 20*time.Second {
			t.Fatalf("promotion took %v — no earlier than plain silence", now)
		}
		pr.p.Stop()
		pr.b.Stop()
		g.Wait()
	})
}

// TestRejoinCatchesUp: after a promotion, pointing the new primary's
// mirror at a fresh standby initializes it by snapshot push and the
// incremental stream resumes behind it — the failed node's rejoin path.
func TestRejoinCatchesUp(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Model{})
		pr := newPair(t, clk, net, pairOptions{ack: replica.AckSync})
		for i := 0; i < 8; i++ {
			if _, err := pr.wrapped.Write(kv{K: "r", N: i}, nil, time.Hour); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		epoch, _ := pr.b.Promote()

		// The promoted node becomes a primary in its own right…
		p2 := replica.NewPrimary(pr.blocal, replica.PrimaryOptions{
			Clock: clk, Epoch: epoch, Ack: replica.AckSync, Counters: pr.ctrs,
		})
		pr.bsw.Set(p2.Sink())
		w2 := p2.Wrap(pr.blocal)

		// …and the returning node rejoins empty, as a standby at the
		// promoted epoch.
		rlocal := space.NewLocal(clk)
		rsw := replica.NewSwitchSink()
		if err := rlocal.TS.AttachJournal(tuplespace.NewJournalSink(rsw)); err != nil {
			t.Fatalf("rejoin journal: %v", err)
		}
		rsrv := transport.NewServer()
		net.Listen("rejoined", rsrv)
		b2 := replica.NewBackup(rlocal, replica.BackupOptions{
			Clock: clk, Epoch: epoch, Counters: pr.ctrs,
		})
		b2.Bind(rsrv)
		p2.SetMirror(net.Dial("rejoined"))
		if err := p2.Flush(); err != nil {
			t.Fatalf("catch-up flush: %v", err)
		}
		sameEntries(t, "after catch-up", entries(t, pr.blocal), entries(t, rlocal))

		// The incremental stream continues past the snapshot.
		if _, err := w2.Write(kv{K: "r", N: 100}, nil, time.Hour); err != nil {
			t.Fatalf("post-rejoin write: %v", err)
		}
		sameEntries(t, "after post-rejoin write", entries(t, pr.blocal), entries(t, rlocal))
		if n := pr.ctrs.Get(metrics.CounterReplResyncs); n == 0 {
			t.Fatal("rejoin did not count a resync")
		}
	})
}

// TestDegradedSyncFailsClosed: with the standby unreachable, sync-mode
// mutations fail with ErrUnavailable rather than silently diverging, and
// recover once the link heals.
func TestDegradedSyncFailsClosed(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Model{})
		pr := newPair(t, clk, net, pairOptions{ack: replica.AckSync})
		if _, err := pr.wrapped.Write(kv{K: "d", N: 0}, nil, time.Hour); err != nil {
			t.Fatalf("write: %v", err)
		}
		net.Unlisten("backup")
		_, err := pr.wrapped.Write(kv{K: "d", N: 1}, nil, time.Hour)
		if err == nil || !errors.Is(err, replica.ErrUnavailable) {
			t.Fatalf("write with dead standby: err = %v, want ErrUnavailable", err)
		}
		if !pr.p.Degraded() {
			t.Fatal("primary not marked degraded")
		}
		// Heal: re-listen, and a successful ship (here an explicit flush;
		// in production the pump's next probe) clears the degradation.
		bsrv := transport.NewServer()
		pr.b.Bind(bsrv)
		net.Listen("backup", bsrv)
		if err := pr.p.Flush(); err != nil {
			t.Fatalf("flush after heal: %v", err)
		}
		if _, err := pr.wrapped.Write(kv{K: "d", N: 2}, nil, time.Hour); err != nil {
			t.Fatalf("write after heal: %v", err)
		}
		if pr.p.Degraded() {
			t.Fatal("primary still degraded after heal")
		}
		sameEntries(t, "after heal", entries(t, pr.local), entries(t, pr.blocal))
	})
}

// unlogged is never registered with anything: it cannot be encoded, so a
// write of it succeeding under a journal shows nothing encoded it.
type unlogged struct{ X int }

// recordLog keeps a copy of every record: the payload is the journal's
// again once Append returns.
type recordLog struct{ recs [][]byte }

func (l *recordLog) Append(p []byte) error {
	l.recs = append(l.recs, append([]byte(nil), p...))
	return nil
}

// TestSwitchSinkDropsWithoutEncoding: a standby's journal sits on a switch
// with no target until promotion. Until then the journal encodes nothing —
// not a record per applied op for nobody — and from the moment a target is
// set, it sees every record.
func TestSwitchSinkDropsWithoutEncoding(t *testing.T) {
	sw := replica.NewSwitchSink()
	if !sw.Dropping() {
		t.Fatal("a switch with no target wants records")
	}
	ts := tuplespace.New(vclock.NewReal())
	if err := ts.AttachJournal(tuplespace.NewJournalSink(sw)); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Write(unlogged{X: 1}, nil, tuplespace.Forever); err != nil {
		t.Fatalf("write with no target: %v (the journal encoded for nobody)", err)
	}
	if _, err := ts.WriteTok(kv{K: "before", N: 1}, nil, tuplespace.Forever, tuplespace.OpToken{Client: "c", Seq: 1}); err != nil {
		t.Fatal(err)
	}

	// Promotion: the node's own controller becomes the target.
	target := &recordLog{}
	sw.Set(target)
	if sw.Dropping() {
		t.Fatal("a switch with a target drops records")
	}
	if _, err := ts.Write(unlogged{X: 2}, nil, tuplespace.Forever); err == nil {
		t.Fatal("an unencodable entry was acknowledged under a journal with a target")
	}
	if _, err := ts.Write(kv{K: "after", N: 2}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.TakeTok(kv{K: "before"}, nil, time.Second, tuplespace.OpToken{Client: "c", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if len(target.recs) != 2 {
		t.Fatalf("target saw %d records after promotion, want 2 (a write and a take)", len(target.recs))
	}
	// What it saw is the stream from that point on: a follower fed it holds
	// the new entry and answers the take's retry from its memo.
	follower := tuplespace.New(vclock.NewReal())
	a := tuplespace.NewApplier(follower)
	for i, rec := range target.recs {
		if err := a.Apply(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if n, _ := follower.Count(kv{}); n != 1 {
		t.Fatalf("follower holds %d entries, want 1", n)
	}
	got, err := follower.TakeTok(kv{K: "before"}, nil, time.Millisecond, tuplespace.OpToken{Client: "c", Seq: 2})
	if err != nil || got.(kv).N != 1 {
		t.Fatalf("take retried at the follower: %v, %v", got, err)
	}

	sw.Set(nil)
	if !sw.Dropping() {
		t.Fatal("a switch whose target was removed wants records")
	}
}

// TestSentinelsCrossTheWire: a replication handler's ErrFenced or
// ErrOutOfSync, bare or wrapped, reaches the caller as the sentinel itself
// over both bindings, while an error that only quotes one's text is not
// taken for it.
func TestSentinelsCrossTheWire(t *testing.T) {
	var mu sync.Mutex
	var fail error // what the handler returns next
	srv := transport.NewServer()
	srv.Handle("probe", func(interface{}) (interface{}, error) {
		mu.Lock()
		defer mu.Unlock()
		return nil, fail
	})
	call := func(c transport.Client, err error) error {
		mu.Lock()
		fail = err
		mu.Unlock()
		_, got := c.Call("probe", nil)
		return got
	}

	network := transport.NewNetwork(vclock.NewReal(), transport.Loopback())
	network.Listen("replica", srv)
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tc, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for _, b := range []struct {
		name string
		c    transport.Client
	}{{"inproc", network.Dial("replica")}, {"tcp", tc}} {
		for _, s := range []error{replica.ErrFenced, replica.ErrOutOfSync} {
			if got := call(b.c, s); got != s {
				t.Errorf("%s: handler returned %q, caller got %v", b.name, s, got)
			}
			if got := call(b.c, fmt.Errorf("epoch 3 < 4: %w", s)); got != s {
				t.Errorf("%s: handler wrapped %q, caller got %v", b.name, s, got)
			}
			if got := call(b.c, errors.New("quoting "+s.Error())); errors.Is(got, s) {
				t.Errorf("%s: an error quoting %q was taken for a sentinel: %v", b.name, s, got)
			}
		}
	}
}

// TestSinksCopyBorrowedPayloads: a journal lends each record to its sink
// for the Append call only, then encodes the next one into the same
// buffer. The primary's queue ships records after the call returns, so it
// keeps copies: records appended from one overwritten buffer — straight
// into Primary.Sink, and through a SwitchSink pointed at it — reach the
// standby as they were.
func TestSinksCopyBorrowedPayloads(t *testing.T) {
	src := tuplespace.New(vclock.NewReal())
	made := &recordLog{}
	if err := src.AttachJournal(tuplespace.NewJournalSink(made)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := src.Write(kv{K: "borrowed", N: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: replica.AckSync})
		if err := pr.p.Flush(); err != nil { // the attach-time snapshot push
			t.Fatal(err)
		}
		sw := replica.NewSwitchSink()
		sw.Set(pr.p.Sink())
		var buf []byte
		for i, rec := range made.recs {
			var sink tuplespace.RecordSink = sw
			if i%2 == 0 {
				sink = pr.p.Sink()
			}
			buf = append(buf[:0], rec...)
			if err := sink.Append(buf); err != nil {
				t.Fatal(err)
			}
			for j := range buf {
				buf[j] = 0xff
			}
		}
		if err := pr.p.Flush(); err != nil {
			t.Fatal(err)
		}
		got := entries(t, pr.blocal)
		for i := range made.recs {
			if got[kv{K: "borrowed", N: i}] != 1 {
				t.Fatalf("standby holds %v, want kv{borrowed %d} once", got, i)
			}
		}
	})
}

// TestConcurrentWritersShareTheQueue: the queue is one buffer that
// concurrent mutations append to while a flush is shipping its prefix and
// that the flush trims after the ack. Writers on the real clock, each
// confirming its own records, race every one of those steps; the standby
// ends up with each write once.
func TestConcurrentWritersShareTheQueue(t *testing.T) {
	clk := vclock.NewReal()
	pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: replica.AckSync, ft: time.Hour})
	const writers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := pr.wrapped.Write(kv{K: fmt.Sprintf("w%d", w), N: i}, nil, time.Hour); err != nil {
					t.Errorf("writer %d, write %d: %v", w, i, err)
					return
				}
				if i%4 == 3 {
					if _, err := pr.wrapped.TakeIfExists(kv{K: fmt.Sprintf("w%d", w), N: i - 1}, nil); err != nil {
						t.Errorf("writer %d, take %d: %v", w, i-1, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if lag := pr.p.Lag(); lag != 0 {
		t.Fatalf("sync primary reports lag %d", lag)
	}
	sameEntries(t, "after concurrent writers", entries(t, pr.local), entries(t, pr.blocal))
	if got := len(entries(t, pr.blocal)); got != writers*each*3/4 {
		t.Fatalf("standby holds %d entries, want %d", got, writers*each*3/4)
	}
}

// TestAckTrimsWhatShipped: records queued while a batch is on the wire
// stay queued when its ack arrives. The flush trims only the acked
// records off the front of the buffer and ships the rest next, twice in a
// row here, so the second trim reads offsets the first one moved.
func TestAckTrimsWhatShipped(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		net := transport.NewNetwork(clk, transport.Model{Latency: 10 * time.Millisecond})
		pr := newPair(t, clk, net, pairOptions{ack: replica.AckAsync, ft: time.Hour})
		if err := pr.p.Flush(); err != nil { // the attach-time snapshot push
			t.Fatal(err)
		}
		write := func(n int) {
			t.Helper()
			if _, err := pr.wrapped.Write(kv{K: "trim", N: n}, nil, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		write(0)
		g := vclock.NewGroup(clk)
		g.Go(func() {
			if err := pr.p.Flush(); err != nil {
				t.Error(err)
			}
		})
		clk.Sleep(5 * time.Millisecond) // record 0 is on the wire
		write(1)
		write(2)
		clk.Sleep(20 * time.Millisecond) // records 1 and 2 are
		write(3)
		g.Wait()
		if err := pr.p.Flush(); err != nil {
			t.Fatal(err)
		}
		if lag := pr.p.Lag(); lag != 0 {
			t.Fatalf("lag %d after the flush", lag)
		}
		if got := pr.ctrs.Get(metrics.CounterReplShipped); got != 4 {
			t.Fatalf("%d records shipped, want 4", got)
		}
		sameEntries(t, "after trimming under writes", entries(t, pr.local), entries(t, pr.blocal))
	})
}

// blob is a keyed entry with a kilobyte of payload.
type blob struct {
	K    string `space:"index"`
	N    int
	Data []byte
}

func init() { transport.RegisterType(blob{}) }

// TestStandbyTakeMemoOutlivesItsRecord: the standby decodes every record
// into one record of its own, reusing its arrays. A take memo keeps the
// entries its record returned, so it must keep its own copy: after a
// tokened take of a 1 KiB entry and 120 records more — writes and tokened
// takes of other entries by the same client and another — the promoted
// standby answers a retry of the take with the original entry, byte for
// byte, under its original key.
func TestStandbyTakeMemoOutlivesItsRecord(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pr := newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: replica.AckSync, ft: time.Hour})
		if err := pr.p.Flush(); err != nil { // the attach-time snapshot push
			t.Fatal(err)
		}
		fill := func(seed byte) []byte {
			b := make([]byte, 1024)
			for i := range b {
				b[i] = seed + byte(i*7)
			}
			return b
		}
		do := func(op space.Op) space.Result {
			t.Helper()
			res, err := pr.wrapped.Do(op)
			if err != nil {
				t.Fatalf("%v: %v", op.Kind, err)
			}
			return res
		}
		orig := blob{K: "memo", N: 1, Data: fill(1)}
		do(space.Op{Kind: space.OpWrite, Entry: orig, TTL: tuplespace.Forever})
		tok := tuplespace.OpToken{Client: "reuse", Seq: 1}
		if res := do(space.Op{Kind: space.OpTake, Entry: blob{K: "memo"}, Token: tok}); res.Entry.(blob).N != 1 {
			t.Fatalf("took %v", res.Entry)
		}
		for i := 0; i < 60; i++ {
			client := []string{"reuse", "other"}[i%2]
			key := fmt.Sprintf("c%03d", i) // as long as "memo": a shared key buffer would be overwritten in place
			do(space.Op{Kind: space.OpWrite, Entry: blob{K: key, N: 100 + i, Data: fill(byte(i + 2))}, TTL: tuplespace.Forever,
				Token: tuplespace.OpToken{Client: client, Seq: uint64(2 + 2*i)}})
			do(space.Op{Kind: space.OpTake, Entry: blob{K: key}, Token: tuplespace.OpToken{Client: client, Seq: uint64(3 + 2*i)}})
		}
		if got := pr.b.Applied(); got < 122 {
			t.Fatalf("standby applied %d records, want the take and 120 more", got)
		}
		if _, ok := pr.b.Promote(); !ok {
			t.Fatal("standby did not promote")
		}
		res, err := pr.blocal.Do(space.Op{Kind: space.OpTake, Entry: blob{K: "memo"}, Token: tok})
		if err != nil {
			t.Fatalf("retried take on the promoted standby: %v", err)
		}
		if got, ok := res.Entry.(blob); !ok || got.K != orig.K || got.N != orig.N || !bytes.Equal(got.Data, orig.Data) {
			t.Fatalf("retried take answered %T %q #%d, want the original entry %q #%d with its own bytes", res.Entry, got.K, got.N, orig.K, orig.N)
		}
		keyed, err := pr.blocal.TS.EncodeMemosWhere(func(key string, keyed bool) bool { return keyed && key == "memo" })
		if err != nil || len(keyed) != 1 {
			t.Fatalf("%d memos under the key \"memo\" (%v), want the take's alone", len(keyed), err)
		}
	})
}

// TestKilledPrimaryRefusesBeforeAdmission pins the serving layers' order:
// the service registers each handler behind its admission controller, and
// the replication envelope is wrapped around that afterwards — so the
// confirm is outermost, and a killed (or fenced, or degraded) primary
// refuses a mutation before admission counts it.
func TestKilledPrimaryRefusesBeforeAdmission(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		local := space.NewLocal(clk)
		srv := transport.NewServer()
		svc := space.NewService(local, srv)
		svc.Admission().Configure(space.AdmissionConfig{Clock: clk})
		p := replica.NewPrimary(local, replica.PrimaryOptions{Clock: clk, Ack: replica.AckSync})
		defer p.Stop()
		srv.WrapPrefix("space.", p.Middleware())
		net := transport.NewNetwork(clk, transport.Model{})
		net.Listen("primary", srv)
		px := space.NewProxy(net.Dial("primary"))
		defer px.Close()

		if _, err := px.Write(kv{K: "a", N: 1}, nil, tuplespace.Forever); err != nil {
			t.Fatalf("write before kill: %v", err)
		}
		if got := svc.Admission().Vitals().Admitted; got != 1 {
			t.Fatalf("admitted %d after one write, want 1", got)
		}
		p.Kill()
		if _, err := px.Write(kv{K: "b", N: 2}, nil, tuplespace.Forever); !errors.Is(err, tuplespace.ErrClosed) {
			t.Fatalf("write after kill: %v, want tuplespace.ErrClosed", err)
		}
		if got := svc.Admission().Vitals().Admitted; got != 1 {
			t.Fatalf("admitted %d after the killed primary's refusal, want 1: admission ran before the replication gate", got)
		}
	})
}
