package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// kv is the keyed test entry; its Key field drives ring placement.
type kv struct {
	Key string `space:"index"`
	Val int
}

// blob has no index field: always written round-robin, always looked up
// by scatter.
type blob struct {
	Val int
}

func init() {
	transport.RegisterType(kv{})
	transport.RegisterType(blob{})
}

// newLocalRouter builds a router over k fresh in-process spaces, returning
// the locals for introspection. Slice is kept short so scatter tests are
// quick on the real clock.
func newLocalRouter(t *testing.T, clk vclock.Clock, k int) (*Router, []*space.Local) {
	t.Helper()
	locals := make([]*space.Local, k)
	shards := make([]Shard, k)
	for i := range locals {
		locals[i] = space.NewLocal(clk)
		shards[i] = Shard{ID: fmt.Sprintf("shard-%d", i), Space: locals[i]}
	}
	r, err := New(Options{Clock: clk}, shards)
	if err != nil {
		t.Fatal(err)
	}
	r.slice, r.poll = 50*time.Millisecond, 5*time.Millisecond
	return r, locals
}

// TestKeyedOpsPropertyOverShardCounts is the satellite property test: for
// every shard count 1..8, keyed writes land on exactly one shard each,
// keyed takes find them, and the shard population sums to the write count.
func TestKeyedOpsPropertyOverShardCounts(t *testing.T) {
	const entries = 96
	for k := 1; k <= 8; k++ {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			clk := vclock.NewReal()
			r, locals := newLocalRouter(t, clk, k)
			for i := 0; i < entries; i++ {
				if _, err := r.Write(kv{Key: fmt.Sprintf("key-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
					t.Fatal(err)
				}
			}
			// Population check via the balance API.
			per, err := r.ShardCounts()
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, counts := range per {
				for _, n := range counts {
					total += n
				}
			}
			if total != entries {
				t.Fatalf("shards hold %d entries, wrote %d (counts %v)", total, entries, per)
			}
			if n, err := r.Count(kv{}); err != nil || n != entries {
				t.Fatalf("Count = %d, %v; want %d", n, err, entries)
			}
			// Keyed reads and takes route to the owning shard and find
			// every entry.
			for i := 0; i < entries; i++ {
				key := fmt.Sprintf("key-%d", i)
				e, err := r.ReadIfExists(kv{Key: key}, nil)
				if err != nil {
					t.Fatalf("read %s: %v", key, err)
				}
				if e.(kv).Val != i {
					t.Fatalf("read %s got %+v", key, e)
				}
				e, err = r.TakeIfExists(kv{Key: key}, nil)
				if err != nil || e.(kv).Val != i {
					t.Fatalf("take %s: %v %v", key, e, err)
				}
			}
			// Drained everywhere.
			for i, l := range locals {
				if st := l.TS.Stats(); st.EntriesLive != 0 {
					t.Fatalf("shard %d still holds %d entries", i, st.EntriesLive)
				}
			}
		})
	}
}

// TestScatterTakePropertyOverShardCounts: zero-key takes retrieve every
// entry exactly once regardless of shard count, then report no-match.
func TestScatterTakePropertyOverShardCounts(t *testing.T) {
	const entries = 40
	for k := 1; k <= 8; k++ {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			r, _ := newLocalRouter(t, vclock.NewReal(), k)
			seen := make(map[int]bool)
			for i := 0; i < entries; i++ {
				if _, err := r.Write(kv{Key: fmt.Sprintf("key-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < entries; i++ {
				e, err := r.Take(kv{}, nil, time.Second) // zero key: scatter
				if err != nil {
					t.Fatalf("scatter take %d: %v", i, err)
				}
				v := e.(kv).Val
				if seen[v] {
					t.Fatalf("entry %d taken twice", v)
				}
				seen[v] = true
			}
			if _, err := r.TakeIfExists(kv{}, nil); !errors.Is(err, tuplespace.ErrNoMatch) {
				t.Fatalf("after draining, err = %v, want ErrNoMatch", err)
			}
		})
	}
}

// TestScatterBlockingTakeNoLeakedWaiters is the satellite scatter-gather
// correctness test: a blocking zero-key Take parked across shards returns
// exactly one entry when one arrives, and the losing shards' parked RPCs
// drain — no blocked wait outlives the scatter by more than one slice.
func TestScatterBlockingTakeNoLeakedWaiters(t *testing.T) {
	r, locals := newLocalRouter(t, vclock.NewReal(), 4)
	type outcome struct {
		e   tuplespace.Entry
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		e, err := r.Take(kv{}, nil, 10*time.Second)
		done <- outcome{e, err}
	}()
	// Wait until the scatter has parked blocking waits on the shards.
	waitFor(t, "scatter to park", func() bool {
		n := 0
		for _, l := range locals {
			n += l.TS.Stats().Waiting
		}
		return n > 0
	})
	// One entry arrives on its ring-owning shard.
	if _, err := r.Write(kv{Key: "wake", Val: 42}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("scatter take: %v", out.err)
	}
	if got := out.e.(kv); got.Val != 42 {
		t.Fatalf("took %+v", got)
	}
	// The losing shards' waits must drain within a slice or so.
	waitFor(t, "losing waits to drain", func() bool {
		for _, l := range locals {
			if l.TS.Stats().Waiting != 0 {
				return false
			}
		}
		return true
	})
	// Exactly one entry was consumed; nothing remains.
	if n, err := r.Count(kv{}); err != nil || n != 0 {
		t.Fatalf("Count after take = %d, %v; want 0", n, err)
	}
}

// TestScatterBlockingReadReadsOnce: a blocking zero-key read with no
// transaction parks the same txn-less reads the wait loop uses as hints,
// so the hint that matches is the answer: the member is read once, not
// woken and then read again.
func TestScatterBlockingReadReadsOnce(t *testing.T) {
	r, locals := newLocalRouter(t, vclock.NewReal(), 3)
	type outcome struct {
		e   tuplespace.Entry
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		e, err := r.Read(kv{}, nil, 10*time.Second)
		done <- outcome{e, err}
	}()
	waitFor(t, "the read to park on every member", func() bool {
		for _, l := range locals {
			if l.TS.Stats().Waiting == 0 {
				return false
			}
		}
		return true
	})
	if _, err := locals[1].Write(kv{Key: "wake", Val: 7}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	if out := <-done; out.err != nil || out.e.(kv).Val != 7 {
		t.Fatalf("blocking read: %v, %v", out.e, out.err)
	}
	var reads uint64
	for _, l := range locals {
		reads += l.TS.Stats().Reads
	}
	if reads != 1 {
		t.Fatalf("the ring served %d reads, want 1", reads)
	}
}

// TestScatterTakeTakesOnce: a blocking zero-key take parked across the
// ring removes exactly one entry, however many members receive one while it
// waits, and puts nothing back. The entries carry a finite lease, so a
// survivor must be there the moment the take returns and gone once its
// lease runs out. The router used to park a take on every member and write
// a second winner back after the fact, with a Forever lease: the count read
// 0 or 1 depending on the race, and the survivor never expired. Under a
// caller's transaction the take wakes within one slice on an entry written
// to any member, and Abort puts that entry back with its lease.
func TestScatterTakeTakesOnce(t *testing.T) {
	const lease = 500 * time.Millisecond
	for _, tc := range []struct {
		name   string
		shards int
		txn    bool
		onto   []int // the members entries are written to, in order
	}{
		{"two-winners", 4, false, []int{0, 1}},
		{"txn/member-0", 3, true, []int{0}},
		{"txn/member-1", 3, true, []int{1}},
		{"txn/member-2", 3, true, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r, locals := newLocalRouter(t, vclock.NewReal(), tc.shards)
			r.slice = 200 * time.Millisecond
			var tx space.Txn
			if tc.txn {
				var err error
				if tx, err = r.BeginTxn(time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				_, err := r.Take(kv{}, tx, 10*time.Second)
				done <- err
			}()
			waitFor(t, "the take to park on every member", func() bool {
				for _, l := range locals {
					if l.TS.Stats().Waiting == 0 {
						return false
					}
				}
				return true
			})
			start := time.Now()
			for i, m := range tc.onto {
				if _, err := locals[m].Write(kv{Key: fmt.Sprintf("e-%d", i), Val: i}, nil, lease); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("scatter take: %v", err)
			}
			if took := time.Since(start); took >= r.slice {
				t.Fatalf("the take returned %v after the write, want within one slice (%v)", took, r.slice)
			}
			count := func(when string, want int) {
				t.Helper()
				if n, err := r.Count(kv{}); err != nil || n != want {
					t.Fatalf("Count %s = %d, %v; want %d", when, n, err, want)
				}
			}
			count("right after the take", len(tc.onto)-1)
			if tc.txn {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				count("after Abort", len(tc.onto))
			}
			time.Sleep(time.Until(start.Add(lease + 200*time.Millisecond)))
			count("once the lease ran out", 0)
		})
	}
}

// TestScatterTakeReadLockedEntry: an entry another transaction holds a
// read lock on is visible to the wait loop's hints, which read outside any
// transaction, but no take may remove it. Every round's hint on its member
// matches at once and the take it wakes misses. With one member locked the
// round waits out its other hints; with every member locked no hint is
// left, and the round must wait out its slice instead of going round at
// once. Either way a locked member is read once per slice, not in a spin.
// Once the locks are gone the entries are taken.
func TestScatterTakeReadLockedEntry(t *testing.T) {
	for _, tc := range []struct {
		name           string
		shards, locked int
	}{
		{"one of three locked", 3, 1},
		{"every member locked", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, locals := newLocalRouter(t, vclock.NewReal(), tc.shards)
			reader, err := r.BeginTxn(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.locked; i++ {
				if _, err := locals[i].Write(kv{Key: "locked", Val: i + 1}, nil, tuplespace.Forever); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Read(kv{Val: i + 1}, reader, time.Second); err != nil {
					t.Fatalf("read under a transaction: %v", err)
				}
			}
			const wait = 300 * time.Millisecond
			before := make([]uint64, tc.locked)
			for i := range before {
				before[i] = locals[i].TS.Stats().Reads
			}
			if _, err := r.Take(kv{}, nil, wait); !errors.Is(err, tuplespace.ErrTimeout) {
				t.Fatalf("take of a read-locked entry: %v, want ErrTimeout", err)
			}
			for i, b := range before {
				if reads, most := locals[i].TS.Stats().Reads-b, uint64(wait/r.slice)+2; reads > most {
					t.Fatalf("the wait read shard-%d's locked entry %d times in %v, want at most %d (one per %v slice)", i, reads, wait, most, r.slice)
				}
			}
			if err := reader.Abort(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.locked; i++ {
				if _, err := r.Take(kv{}, nil, time.Second); err != nil {
					t.Fatalf("take %d once the read locks are gone: %v", i, err)
				}
			}
		})
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSingleShardPassThrough: with one shard the router is semantically
// the single-server path — same results, same sentinel errors, blocking
// ops handed the full timeout.
func TestSingleShardPassThrough(t *testing.T) {
	r, locals := newLocalRouter(t, vclock.NewReal(), 1)
	if _, err := r.Write(blob{Val: 7}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	e, err := r.Read(blob{}, nil, time.Second)
	if err != nil || e.(blob).Val != 7 {
		t.Fatalf("read: %v %v", e, err)
	}
	if _, err := r.TakeIfExists(blob{Val: 99}, nil); !errors.Is(err, tuplespace.ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
	if _, err := r.Take(blob{Val: 99}, nil, 10*time.Millisecond); !errors.Is(err, tuplespace.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// A zero-key blocking take on one shard must be a direct blocking
	// call, not a poll loop: the shard sees exactly one blocked waiter.
	go func() {
		time.Sleep(30 * time.Millisecond)
		r.Write(blob{Val: 1}, nil, tuplespace.Forever)
	}()
	if _, err := r.Take(blob{}, nil, 2*time.Second); err != nil {
		t.Fatalf("blocking take: %v", err)
	}
	st := locals[0].TS.Stats()
	if st.Blocked != 1 {
		t.Fatalf("shard saw %d blocked calls, want exactly 1 (pass-through)", st.Blocked)
	}
}

func TestRouterTxn(t *testing.T) {
	r, _ := newLocalRouter(t, vclock.NewReal(), 4)
	tx, err := r.BeginTxn(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Writes under the txn spread over multiple shards (distinct keys).
	for i := 0; i < 8; i++ {
		if _, err := r.Write(kv{Key: fmt.Sprintf("t-%d", i), Val: i}, tx, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	// Invisible outside the txn, visible inside it.
	if n, _ := r.Count(kv{}); n != 0 {
		t.Fatalf("uncommitted writes visible: count = %d", n)
	}
	if _, err := r.ReadIfExists(kv{Key: "t-3"}, tx); err != nil {
		t.Fatalf("txn read-own-write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Count(kv{}); n != 8 {
		t.Fatalf("after commit count = %d, want 8", n)
	}
	// Double-finish reports inactive.
	if err := tx.Commit(); !errors.Is(err, tuplespace.ErrTxnInactive) {
		t.Fatalf("second commit err = %v", err)
	}

	// Abort undoes a cross-shard take (the template is zero-key, so the
	// take scatters).
	tx2, _ := r.BeginTxn(time.Minute)
	if _, err := r.Take(kv{}, tx2, time.Second); err != nil {
		t.Fatalf("scatter take under txn: %v", err)
	}
	if n, _ := r.Count(kv{}); n != 7 {
		t.Fatalf("count during txn take = %d, want 7", n)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Count(kv{}); n != 8 {
		t.Fatalf("after abort count = %d, want 8", n)
	}

	// A foreign txn handle is rejected.
	other, _ := newLocalRouter(t, vclock.NewReal(), 2)
	otx, _ := other.BeginTxn(time.Minute)
	if _, err := r.Write(kv{Key: "x"}, otx, tuplespace.Forever); !errors.Is(err, space.ErrBadTxn) {
		t.Fatalf("foreign txn err = %v, want ErrBadTxn", err)
	}
}

func TestRouterBulkOps(t *testing.T) {
	r, _ := newLocalRouter(t, vclock.NewReal(), 4)
	for i := 0; i < 20; i++ {
		if _, err := r.Write(kv{Key: fmt.Sprintf("b-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	all, err := r.ReadAll(kv{}, nil, 0)
	if err != nil || len(all) != 20 {
		t.Fatalf("ReadAll = %d entries, %v; want 20", len(all), err)
	}
	some, err := r.ReadAll(kv{}, nil, 7)
	if err != nil || len(some) != 7 {
		t.Fatalf("bounded ReadAll = %d entries, %v; want 7", len(some), err)
	}
	// Keyed bulk goes to one shard.
	one, err := r.ReadAll(kv{Key: "b-3"}, nil, 0)
	if err != nil || len(one) != 1 {
		t.Fatalf("keyed ReadAll = %d entries, %v; want 1", len(one), err)
	}
	taken, err := r.TakeAll(kv{}, nil, 12)
	if err != nil || len(taken) != 12 {
		t.Fatalf("TakeAll(12) = %d entries, %v", len(taken), err)
	}
	rest, err := r.TakeAll(kv{}, nil, 0)
	if err != nil || len(rest) != 8 {
		t.Fatalf("TakeAll(rest) = %d entries, %v; want 8", len(rest), err)
	}
	if n, _ := r.Count(kv{}); n != 0 {
		t.Fatalf("count after TakeAll = %d", n)
	}

	// Two middle shards fail: every concurrent gather reports the first
	// error in shard order, whichever call happened to finish first, and
	// discards the partial results.
	clk := vclock.NewReal()
	shards := make([]Shard, 4)
	for i := range shards {
		id := fmt.Sprintf("shard-%d", i)
		sp := space.Space(space.NewLocal(clk))
		if i == 1 || i == 2 {
			sp = space.Intercept(sp, func(space.Op, space.Doer) (space.Result, error) {
				return space.Result{}, fmt.Errorf("%s is down", id)
			})
		}
		shards[i] = Shard{ID: id, Space: sp}
	}
	if r, err = New(Options{Clock: clk}, shards); err != nil {
		t.Fatal(err)
	}
	gathers := map[string]func() (bool, error){
		"ReadAll": func() (bool, error) { es, err := r.ReadAll(kv{}, nil, 0); return es == nil, err },
		"Count":   func() (bool, error) { n, err := r.Count(kv{}); return n == 0, err },
		"ShardCounts": func() (bool, error) {
			per, err := r.ShardCounts()
			return per == nil, err
		},
		"TypeCounts": func() (bool, error) { tc, err := r.TypeCounts(); return tc == nil, err },
	}
	for name, gather := range gathers {
		empty, err := gather()
		var se *ShardError
		if !errors.As(err, &se) || se.Shard != "shard-1" {
			t.Errorf("%s over two dead shards: err = %v, want the ShardError of shard-1", name, err)
		}
		if !empty {
			t.Errorf("%s returned partial results alongside its error", name)
		}
	}
}

func TestRouterOverProxies(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())
	const k = 3
	shards := make([]Shard, k)
	for i := 0; i < k; i++ {
		addr := fmt.Sprintf("space.%d", i)
		srv := transport.NewServer()
		space.NewService(space.NewLocal(clk), srv)
		net.Listen(addr, srv)
		shards[i] = Shard{ID: addr, Space: space.NewProxy(net.Dial(addr))}
	}
	r, err := New(Options{Clock: clk}, shards)
	if err != nil {
		t.Fatal(err)
	}
	r.slice = 50 * time.Millisecond
	defer r.Close()
	for i := 0; i < 12; i++ {
		if _, err := r.Write(kv{Key: fmt.Sprintf("p-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := r.Count(kv{}); err != nil || n != 12 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	// Keyed take through the proxy.
	if e, err := r.Take(kv{Key: "p-5"}, nil, time.Second); err != nil || e.(kv).Val != 5 {
		t.Fatalf("keyed take: %v %v", e, err)
	}
	// Scatter take through proxies.
	for i := 0; i < 11; i++ {
		if _, err := r.Take(kv{}, nil, time.Second); err != nil {
			t.Fatalf("scatter take %d: %v", i, err)
		}
	}
	// Remote sentinel errors survive the trip.
	if _, err := r.TakeIfExists(kv{}, nil); !errors.Is(err, tuplespace.ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
	// Balance API over proxies.
	counts, err := r.TypeCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 0 {
		t.Fatalf("drained router reports counts %v", counts)
	}
}

// TestScatterOnVirtualClock runs the full scatter machinery under the
// deterministic clock: a consumer parks across shards, a producer writes
// after 300ms of virtual time, and the consumer wakes with the entry.
func TestScatterOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var got tuplespace.Entry
	var err error
	var waited time.Duration
	clk.Run(func() {
		r, _ := newLocalRouter(t, clk, 4)
		g := vclock.NewGroup(clk)
		g.Go(func() {
			clk.Sleep(300 * time.Millisecond)
			r.Write(kv{Key: "vc", Val: 9}, nil, tuplespace.Forever)
		})
		start := clk.Now()
		got, err = r.Take(kv{}, nil, 5*time.Second)
		waited = clk.Since(start)
		g.Wait()
	})
	if err != nil || got.(kv).Val != 9 {
		t.Fatalf("take: %v %v", got, err)
	}
	if waited < 300*time.Millisecond || waited > time.Second {
		t.Fatalf("virtual wait = %v, want ~300ms", waited)
	}
}

func TestSetShardsValidation(t *testing.T) {
	if _, err := New(Options{}, nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	l := space.NewLocal(vclock.NewReal())
	if _, err := New(Options{}, []Shard{{ID: "a", Space: l}, {ID: "a", Space: l}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := New(Options{}, []Shard{{ID: "a"}}); err == nil {
		t.Fatal("nil space accepted")
	}
	r, _ := newLocalRouter(t, vclock.NewReal(), 2)
	if r.NumShards() != 2 {
		t.Fatalf("NumShards = %d", r.NumShards())
	}
}
