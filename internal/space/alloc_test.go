package space

import (
	"math"
	"runtime"
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

// admittedProxy serves local over loopback TCP, behind admission, and
// returns a Proxy on it; the test closes both.
func admittedProxy(t *testing.T, local *Local) *Proxy {
	t.Helper()
	clk := vclock.NewReal()
	srv := transport.NewServer()
	svc := NewService(local, srv)
	svc.Admission().Configure(AdmissionConfig{Clock: clk})
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(c)
	t.Cleanup(func() { p.Close() })
	return p
}

// tcpPair serves local over loopback TCP and returns one keyed write+take
// pair through Proxy → TCP → Service → local, run once so that the
// connection has defined its types. bulk takes with TakeAll instead of
// Take.
func tcpPair(t *testing.T, local *Local, bulk bool) func() {
	t.Helper()
	p := admittedProxy(t, local)
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
	pair()
	return pair
}

// maxPairBytes is what the pair of maxPairAllocs allocates in bytes: the
// caller's entry and template (48 B each), the stored entry (48 B and its
// 64-byte payload) and its 64-byte header, and the entry and payload the
// caller gets back. It reads 384 built with go1.24 on amd64 (416 while the
// header was 88 bytes, the 96-byte size class).
const maxPairBytes = 384

// maxTxnTaskAllocs is what a worker's transaction step allocates end to
// end over loopback TCP. It reads 20 built with go1.24 on amd64, as it did
// while each resident held its value as a reflect.Value and its read
// locks in a map of its own: neither was on this path.
const maxTxnTaskAllocs = 20

// pairAllocations returns what one tcpPair allocates, counted across every
// goroutine the pair touches.
func pairAllocations(t *testing.T, local *Local, bulk bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, tcpPair(t, local, bulk))
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

// TestPairBytes pins the bytes one write+take pair through Proxy → TCP →
// Service → Local allocates, across every goroutine it touches: the
// TotalAlloc delta over 200 pairs. A resident's header grown back past its
// size class fails it.
func TestPairBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	pair := tcpPair(t, NewLocal(vclock.NewReal()), false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun runs
	// The least of three runs: a collection mid-run empties the pools the
	// pair borrows its wire structs from, and the refill is no pair's.
	const n = 200
	got := math.Inf(1)
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			pair()
		}
		runtime.ReadMemStats(&after)
		got = min(got, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	t.Logf("%.1f bytes per write+take pair", got)
	if got > maxPairBytes {
		t.Errorf("%.1f bytes per write+take pair, want ≤ %d", got, maxPairBytes)
	}
}

// TestTxnTaskAllocations pins what a worker's transaction step allocates
// through Proxy → TCP → Service → Local: begin, take a task under the
// transaction, write its result under it, commit. The result is a task
// again, so each step takes the one the last wrote.
func TestTxnTaskAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := admittedProxy(t, NewLocal(vclock.NewReal()))
	payload := make([]byte, 64)
	if _, err := p.Write(pairTask{Job: "k", ID: 7, Payload: payload}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	step := func() {
		tx, err := p.BeginTxn(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		e, err := p.Take(pairTask{Job: "k"}, tx, time.Second)
		if err != nil || e.(pairTask).ID != 7 {
			t.Fatalf("take under the transaction = %v, %v", e, err)
		}
		if _, err := p.Write(pairTask{Job: "k", ID: 7, Payload: payload}, tx, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, step)
	t.Logf("%.1f allocations per transaction step", got)
	if got > maxTxnTaskAllocs {
		t.Errorf("%.1f allocations per transaction step, want ≤ %d", got, maxTxnTaskAllocs)
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
