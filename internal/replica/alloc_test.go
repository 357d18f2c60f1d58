package replica_test

import (
	"testing"
	"time"

	"gospaces/internal/replica"
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
// allocations, the queue's copy of each record, and per op one shipped
// batch — the primary's call to its standby, the standby's decode and
// apply, the ack. It reads 45 built with go1.24 on amd64 (62 while each
// request had a goroutine of its own and each record two copies, 47 while
// each stored entry's lease was an allocation of its own); the spare two
// absorb runtime differences between Go releases.
const maxReplicatedPairAllocs = 47

// TestReplicatedPairAllocations pins the allocation count of one
// write+take pair through Proxy → TCP → Service → Local on a primary whose
// every mutation is shipped to its standby over TCP before it is
// acknowledged. Skipped under the race detector, which allocates on its
// own.
func TestReplicatedPairAllocations(t *testing.T) {
	if raceEnabled {
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

	payload := make([]byte, 64)
	pair := func() {
		if _, err := px.Write(pairTask{Job: "k", ID: 7, Payload: payload}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		e, err := px.Take(pairTask{Job: "k"}, nil, time.Second)
		if err != nil || e.(pairTask).ID != 7 {
			t.Fatalf("take = %v, %v", e, err)
		}
	}
	pair() // first use defines the types on both connections
	got := testing.AllocsPerRun(200, pair)
	t.Logf("%.1f allocations per replicated write+take pair", got)
	if got > maxReplicatedPairAllocs {
		t.Fatalf("%.1f allocations per replicated write+take pair, want ≤ %d", got, maxReplicatedPairAllocs)
	}
	if n, err := blocal.Count(pairTask{}); err != nil || n != 0 {
		t.Fatalf("standby holds %d entries (%v), want the pairs' writes taken again", n, err)
	}
}
