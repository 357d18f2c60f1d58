package replica_test

import (
	"testing"
	"time"

	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// pairTask has the benchmark entry's shape: an indexed key, a number and
// a small payload.
type pairTask struct {
	Job     string `space:"index"`
	ID      int
	Payload []byte
}

func init() { transport.RegisterType(pairTask{}) }

// maxReplicatedPairAllocs is what one keyed write+take pair may allocate
// through a sync-replicated shard over loopback TCP: the in-memory pair's
// allocations and, on the standby, the one copy of the entry it stores.
// The ship's own wire structs are lent like a proxy's (DESIGN §14): the
// primary takes its appendArgs from the pool and releases it once Call has
// returned, the standby decodes it into a pooled one, and the appendReply
// is pooled at both ends. The standby reads each batch in place, in the
// request frame (an enc.View), which goes back to the connection's spare
// list once answered. The queue copies each record into one buffer and the
// standby decodes each into one reused record, so a record costs neither
// side an allocation of its own. It reads 10 built with go1.24 on amd64
// (11 while the service decoded each template fresh, 12 while each
// write's lease was a handle of its own, 14 while the standby copied each
// batch out of its frame, 33 while every wire struct was allocated and
// boxed per call, 45 while the queue held a slice per record and the
// standby decoded each into fresh arrays, 62 while each request had a
// goroutine of its own and each record two copies); the spare two absorb
// runtime differences between Go releases.
const maxReplicatedPairAllocs = 12

// maxTokenedReplicatedPairAllocs is the same pair through a one-member
// tokened shard.Router, as every production client reaches its shard:
// the router's token and retry state on top, and on the standby the take
// memo, which answers with the entry the standby already holds. The memo
// table keeps its rows by value and a take's entry inline, so no memo
// allocates on either side; the token's client comes from each stream's
// string table (DESIGN §14) after its first op, on the primary's
// connection and in the standby's applier alike; and the router passes
// the proxy's lease on as a value (DESIGN §11). It reads 10 built with
// go1.24 on amd64 (11 while the service decoded each template fresh, 15
// while the primary copied the token's client per op and each written
// lease was a proxy handle wrapped in a router handle, 21 while each memo
// row was a pointer and a take's answer a slice of its own, 25 while the
// standby decoded the memo's entry a second time out of the remove record,
// 46 before the wire structs were lent, 60 before the queue buffer and the
// reused record); the spare two as above.
const maxTokenedReplicatedPairAllocs = 12

// TestReplicatedPairAllocations pins the allocation count of one
// write+take pair through Proxy → TCP → Service → Local on a primary whose
// every mutation is shipped to its standby over TCP before it is
// acknowledged: straight through the proxy, and through a tokened router
// over it. Skipped under the race detector, which allocates on its own.
func TestReplicatedPairAllocations(t *testing.T) {
	if replica.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	clk := vclock.NewReal()
	psw := replica.NewSwitchSink()
	local := space.NewLocal(clk)
	if err := local.TS.AttachJournal(tuplespace.NewJournalSink(psw)); err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	blocal := space.NewLocal(clk)
	if err := blocal.TS.AttachJournal(tuplespace.NewJournalSink(replica.NewSwitchSink())); err != nil {
		t.Fatal(err)
	}
	defer blocal.Close()

	bsrv := transport.NewServer()
	bln, err := transport.ListenTCP("127.0.0.1:0", bsrv)
	if err != nil {
		t.Fatal(err)
	}
	defer bln.Close()
	b := replica.NewBackup(blocal, replica.BackupOptions{Clock: clk, FailoverTimeout: time.Hour})
	b.Bind(bsrv)
	defer b.Stop()
	p := replica.NewPrimary(local, replica.PrimaryOptions{Clock: clk, Ack: replica.AckSync})
	defer p.Stop()
	psw.Set(p.Sink())
	mirror, err := transport.DialTCP(bln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	p.SetMirror(mirror)
	if err := p.Flush(); err != nil { // the attach-time snapshot push
		t.Fatal(err)
	}

	srv := transport.NewServer()
	svc := space.NewService(local, srv)
	svc.Admission().Configure(space.AdmissionConfig{Clock: clk})
	srv.WrapPrefix("space.", p.Middleware())
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	px := space.NewProxy(c)
	defer px.Close()
	router, err := shard.New(shard.Options{Clock: clk, Seed: "alloc"}, []shard.Shard{{ID: ln.Addr(), Space: px}})
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 64)
	for _, arm := range []struct {
		name string
		sp   space.Space
		max  int
	}{
		{"proxy", px, maxReplicatedPairAllocs},
		{"tokened router", router, maxTokenedReplicatedPairAllocs},
	} {
		pair := func() {
			if _, err := arm.sp.Write(pairTask{Job: "k", ID: 7, Payload: payload}, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
			e, err := arm.sp.Take(pairTask{Job: "k"}, nil, time.Second)
			if err != nil || e.(pairTask).ID != 7 {
				t.Fatalf("take = %v, %v", e, err)
			}
		}
		pair() // first use defines the types on both connections
		got := testing.AllocsPerRun(200, pair)
		t.Logf("%s: %.1f allocations per replicated write+take pair", arm.name, got)
		if got > float64(arm.max) {
			t.Errorf("%s: %.1f allocations per replicated write+take pair, want ≤ %d", arm.name, got, arm.max)
		}
	}
	if n, err := blocal.Count(pairTask{}); err != nil || n != 0 {
		t.Fatalf("standby holds %d entries (%v), want the pairs' writes taken again", n, err)
	}
	if size, _, _ := blocal.TS.MemoStats(); size == 0 {
		t.Fatal("the standby holds no memo: the tokened arm's ops were not tokened")
	}
}
