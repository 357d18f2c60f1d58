package space

import (
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// pairTask has the benchmark entry's shape: an indexed key, a number and
// a small payload.
type pairTask struct {
	Job     string `space:"index"`
	ID      int
	Payload []byte
}

func init() { transport.RegisterType(pairTask{}) }

// maxPairAllocs is what one keyed write+take pair may allocate end to
// end over loopback TCP, and all of it is what somebody keeps: the
// caller's entry and template, the stored entry (the service decodes it
// and the store keeps it), and the entry and payload the caller gets
// back. The wire structs of both calls — arguments and replies, at both
// ends — are lent from their pools and released, and so is the template
// the service decodes (DESIGN §14); the server starts no goroutine per
// request, the key's index bucket reuses the array the last pair's
// emptied bucket left, and the lease the caller gets is a value (DESIGN
// §11). The key is one byte, which Go never copies, so the connection's
// string table (DESIGN §14) saves nothing here. It reads 7 built with
// go1.24 on amd64 (8 while the service decoded each template fresh, 9
// while each write's lease was a handle of its own, 19 while the wire
// structs were allocated and boxed per call and each pair made its bucket
// anew); the spare two absorb runtime differences between the Go releases
// CI builds with.
const maxPairAllocs = 9

// maxBulkExtraAllocs is how many more the same pair may allocate when it
// takes with TakeAll. The reply's entry slice is decoded once at the client
// and kept by the caller, and the service hands the store's slice to the
// encoder as it is. It reads 6 (8 while both ends copied the slice between
// []tuplespace.Entry and the wire's []interface{}). The difference is
// pinned, not the count, so Go releases that allocate differently on the
// rest of the path move both pairs alike.
const maxBulkExtraAllocs = 6

// pairAllocations serves local over loopback TCP and returns what one
// keyed write+take pair through Proxy → TCP → Service → local allocates,
// counted across every goroutine the pair touches. bulk takes with
// TakeAll instead of Take.
func pairAllocations(t *testing.T, local *Local, bulk bool) float64 {
	t.Helper()
	clk := vclock.NewReal()
	srv := transport.NewServer()
	svc := NewService(local, srv)
	svc.Admission().Configure(AdmissionConfig{Clock: clk})
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(c)
	defer p.Close()

	payload := make([]byte, 64)
	pair := func() {
		if _, err := p.Write(pairTask{Job: "k", ID: 7, Payload: payload}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		if bulk {
			es, err := p.TakeAll(pairTask{Job: "k"}, nil, 1)
			if err != nil || len(es) != 1 || es[0].(pairTask).ID != 7 {
				t.Fatalf("take-all = %v, %v", es, err)
			}
			return
		}
		e, err := p.Take(pairTask{Job: "k"}, nil, time.Second)
		if err != nil || e.(pairTask).ID != 7 {
			t.Fatalf("take = %v, %v", e, err)
		}
	}
	pair() // first use defines the types on the connection
	return testing.AllocsPerRun(200, pair)
}

// TestPairAllocations pins the allocation count of one write+take pair
// through Proxy → TCP → Service → Local, taken with Take and with TakeAll.
// It is skipped under the race detector, which allocates on its own.
func TestPairAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	got := pairAllocations(t, NewLocal(vclock.NewReal()), false)
	t.Logf("%.1f allocations per write+take pair", got)
	if got > maxPairAllocs {
		t.Errorf("%.1f allocations per write+take pair, want ≤ %d", got, maxPairAllocs)
	}
	bulk := pairAllocations(t, NewLocal(vclock.NewReal()), true)
	t.Logf("%.1f allocations per write+take-all pair", bulk)
	if bulk > got+maxBulkExtraAllocs {
		t.Errorf("%.1f allocations per write+take-all pair, want ≤ %.1f (the take pair's + %d)", bulk, got+maxBulkExtraAllocs, maxBulkExtraAllocs)
	}
}

// TestDurablePairAllocations: the same pair on a strict WAL-backed space
// allocates exactly what it does in memory. Both records are encoded into
// the journal's reused buffer and framed into the log's, and the journal
// hands the log the stored value itself, so durability adds no allocation.
func TestDurablePairAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	mem := pairAllocations(t, NewLocal(vclock.NewReal()), false)
	local, d, err := NewLocalDurable(vclock.NewReal(), DurableOptions{
		Dir: t.TempDir(), Fsync: wal.FsyncNever, SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer local.Close()
	got := pairAllocations(t, local, false)
	t.Logf("%.1f allocations per durable write+take pair, %.1f in memory", got, mem)
	if got != mem {
		t.Fatalf("%.1f allocations per durable write+take pair, want the in-memory pair's %.1f", got, mem)
	}
	if n := d.Log().Position(); n < 2*200 {
		t.Fatalf("log holds %d records, want the pairs' writes and takes", n)
	}
}
