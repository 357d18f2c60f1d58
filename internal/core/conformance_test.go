package core

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
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

// conf is the conformance script's entry: keyed, so a router places every
// attempt of one operation on the same shard.
type conf struct {
	Key string `space:"index"`
	Val int
}

func init() { transport.RegisterType(conf{}) }

// conformanceStacks builds every way the framework reaches a space: the
// three transports and each interceptor over a Local. (The test lives in
// core because the gate interceptor does.)
func conformanceStacks(t *testing.T, clk vclock.Clock) map[string]space.Space {
	t.Helper()
	net := transport.NewNetwork(clk, transport.Loopback())
	served := 0
	proxy := func() space.Space {
		srv := transport.NewServer()
		space.NewService(space.NewLocal(clk), srv)
		addr := fmt.Sprintf("conf%d", served)
		served++
		net.Listen(addr, srv)
		return space.NewProxy(net.Dial(addr))
	}
	router := func(a, b space.Space) space.Space {
		r, err := shard.New(shard.Options{Clock: clk, Seed: "conf"}, []shard.Shard{{ID: "s0", Space: a}, {ID: "s1", Space: b}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	primary := space.NewLocal(clk)
	return map[string]space.Space{
		"local":        space.NewLocal(clk),
		"proxy":        proxy(),
		"router/local": router(space.NewLocal(clk), space.NewLocal(clk)),
		"router/rpc":   router(proxy(), proxy()),
		"gate":         space.Gated(space.NewLocal(clk), transport.NewServiceGate(clk, time.Microsecond)),
		"timed":        obs.InstrumentSpace(space.NewLocal(clk), clk, metrics.NewRegistry(), metrics.HistSpacePrefix),
		"primary":      replica.NewPrimary(primary, replica.PrimaryOptions{Clock: clk}).Wrap(primary),
	}
}

// confErr names the sentinel an error carries, so transcripts compare
// across stacks that wrap errors differently.
func confErr(err error) string {
	for _, s := range []error{tuplespace.ErrNoMatch, tuplespace.ErrTimeout, tuplespace.ErrLeaseExpired, tuplespace.ErrTxnInactive} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return fmt.Sprint(err)
}

// conformanceScript drives all 14 kinds through sp and returns what it
// observed, one line per step. Handles are recorded by presence; bulk
// results are sorted (a router gathers in shard order).
func conformanceScript(t *testing.T, sp space.Space) []string {
	t.Helper()
	var log []string
	seen := [space.NumKinds]bool{}
	do := func(step string, op space.Op) space.Result {
		seen[op.Kind] = true
		res, err := sp.Do(op)
		vals := []int{}
		for _, e := range res.Entries {
			vals = append(vals, e.(conf).Val)
		}
		sort.Ints(vals)
		log = append(log, fmt.Sprintf("%s: entry=%v entries=%v lease=%t txn=%t n=%d counts=%v err=%s",
			step, res.Entry, vals, res.Lease != (space.Lease{}), res.Txn != nil, res.N, res.Counts, confErr(err)))
		return res
	}
	write := func(step, key string, val int, tx space.Txn) space.Lease {
		return do(step, space.Op{Kind: space.OpWrite, Entry: conf{Key: key, Val: val}, Txn: tx, TTL: time.Hour}).Lease
	}
	count := func(step string) { do(step, space.Op{Kind: space.OpCount, Entry: conf{}}) }

	write("write a", "a", 1, nil)
	write("write b", "b", 2, nil)
	do("read a", space.Op{Kind: space.OpRead, Entry: conf{Key: "a"}, Wait: time.Second})
	do("read-if-exists b", space.Op{Kind: space.OpReadIfExists, Entry: conf{Key: "b"}})
	do("take-if-exists missing", space.Op{Kind: space.OpTakeIfExists, Entry: conf{Key: "zz"}})
	do("read-all", space.Op{Kind: space.OpReadAll, Entry: conf{}})
	do("type-counts", space.Op{Kind: space.OpTypeCounts})

	// Transaction commit: a provisional write and take become public.
	tx := do("begin", space.Op{Kind: space.OpBeginTxn, TTL: time.Minute}).Txn
	write("txn write c", "c", 3, tx)
	do("txn take a", space.Op{Kind: space.OpTake, Entry: conf{Key: "a"}, Txn: tx, Wait: time.Second})
	count("count in txn") // a is take-locked, c unpublished: b only
	do("commit", space.Op{Kind: space.OpCommit, Txn: tx})
	count("count after commit") // b, c

	// Transaction abort: the take is undone.
	tx = do("begin 2", space.Op{Kind: space.OpBeginTxn, TTL: time.Minute}).Txn
	do("txn take b", space.Op{Kind: space.OpTakeIfExists, Entry: conf{Key: "b"}, Txn: tx})
	do("abort", space.Op{Kind: space.OpAbort, Txn: tx})
	count("count after abort") // b, c

	// Lease renew and cancel.
	l := write("write d", "d", 4, nil)
	do("renew d", space.Op{Kind: space.OpRenew, Lease: l, TTL: 2 * time.Hour})
	do("cancel d", space.Op{Kind: space.OpCancel, Lease: l})
	do("renew cancelled d", space.Op{Kind: space.OpRenew, Lease: l, TTL: time.Hour})
	count("count after cancel") // b, c

	// A blocking take woken by a later write.
	woken := make(chan space.Result, 1)
	go func() {
		res, _ := sp.Do(space.Op{Kind: space.OpTake, Entry: conf{Key: "e"}, Wait: 5 * time.Second})
		woken <- res
	}()
	time.Sleep(20 * time.Millisecond)
	write("write e", "e", 5, nil)
	log = append(log, fmt.Sprintf("woken take: entry=%v", (<-woken).Entry))

	do("take-all", space.Op{Kind: space.OpTakeAll, Entry: conf{}})
	do("take on empty", space.Op{Kind: space.OpTake, Entry: conf{Key: "b"}, Wait: 20 * time.Millisecond})
	do("end type-counts", space.Op{Kind: space.OpTypeCounts})
	for k, ok := range seen {
		if !ok {
			t.Errorf("script never issued %s", space.Kind(k))
		}
	}
	return log
}

// conformanceReplay issues a tokened Write, Take, Commit and Cancel twice
// each — the reply-lost retry — and requires one effect and the same
// answer both times.
func conformanceReplay(t *testing.T, sp space.Space) {
	t.Helper()
	seq := uint64(0)
	twice := func(what string, op space.Op) {
		seq++
		op.Token = tuplespace.OpToken{Client: "conformance", Seq: seq}
		var first space.Result
		for i := 0; i < 2; i++ {
			res, err := sp.Do(op)
			if err != nil {
				t.Fatalf("%s, attempt %d: %v", what, i+1, err)
			}
			if i == 0 {
				first = res
			} else if !reflect.DeepEqual(res.Entry, first.Entry) {
				t.Fatalf("%s replay returned %v, original %v", what, res.Entry, first.Entry)
			}
		}
	}
	want := func(what, key string, n int) {
		if got, err := sp.Count(conf{Key: key}); err != nil || got != n {
			t.Fatalf("after replayed %s: %d entries under %q (err %v), want %d", what, got, key, err, n)
		}
	}

	twice("write", space.Op{Kind: space.OpWrite, Entry: conf{Key: "w", Val: 1}, TTL: time.Hour})
	want("write", "w", 1)

	for v := 1; v <= 2; v++ {
		if _, err := sp.Write(conf{Key: "x", Val: v}, nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	twice("take", space.Op{Kind: space.OpTake, Entry: conf{Key: "x"}, Wait: time.Second})
	want("take", "x", 1)

	tx, err := sp.BeginTxn(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(conf{Key: "y", Val: 1}, tx, time.Hour); err != nil {
		t.Fatal(err)
	}
	twice("commit", space.Op{Kind: space.OpCommit, Txn: tx})
	want("commit", "y", 1)

	l, err := sp.Write(conf{Key: "z", Val: 1}, nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	twice("cancel", space.Op{Kind: space.OpCancel, Lease: l})
	want("cancel", "z", 0)
}

// TestStackConformance: one Op means the same thing on every stack. The
// scripted sequence must read identically through all seven, and a
// replayed token must have one effect on each.
//
// Before Op/Do the token travelled a parallel *Tok method family that each
// wrapper had to re-implement, and two rows here failed: the timed handle
// (obs.InstrumentSpace had no WriteTok, so a replayed write stored two
// entries) and every in-process commit (localTxn had no CommitTok, so the
// replay surfaced ErrTxnInactive where the same replay over RPC succeeded).
func TestStackConformance(t *testing.T) {
	clk := vclock.NewReal()
	scripted := conformanceStacks(t, clk)
	want := conformanceScript(t, scripted["local"])
	delete(scripted, "local")
	// The transcript itself is pinned, so a change to the wire (or to any
	// layer) that moved every stack the same way still shows.
	const golden = "testdata/conformance.golden"
	transcript := strings.Join(want, "\n") + "\n"
	if pinned, err := os.ReadFile(golden); err != nil || string(pinned) != transcript {
		t.Fatalf("transcript differs from %s (err %v):\n%s", golden, err, transcript)
	}
	for name, sp := range scripted {
		t.Run("script/"+name, func(t *testing.T) {
			got := conformanceScript(t, sp)
			if len(got) != len(want) {
				t.Fatalf("%d steps logged, the local stack logged %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d differs from the local stack:\n got  %q\n want %q", i, got[i], want[i])
				}
			}
		})
	}
	for name, sp := range conformanceStacks(t, clk) {
		t.Run("replay/"+name, func(t *testing.T) { conformanceReplay(t, sp) })
	}
}
