package space

import (
	"testing"
	"time"

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

// maxPairAllocs is what one keyed write+take pair may allocate end to
// end over loopback TCP: the client's argument and lease handle, each
// decoded value once, one goroutine per request, the store's copies in
// and out, and the reply boxes. It reads 26 built with go1.24 on amd64;
// the spare two absorb runtime differences between the Go releases CI
// builds with.
const maxPairAllocs = 28

// TestPairAllocations pins the allocation count of one write+take pair
// through Proxy → TCP → Service → Local, counted across every goroutine
// the pair touches. It is skipped under the race detector, which
// allocates on its own.
func TestPairAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	clk := vclock.NewReal()
	srv := transport.NewServer()
	svc := NewService(NewLocal(clk), srv)
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
		e, err := p.Take(pairTask{Job: "k"}, nil, time.Second)
		if err != nil || e.(pairTask).ID != 7 {
			t.Fatalf("take = %v, %v", e, err)
		}
	}
	pair() // first use defines the types on the connection
	got := testing.AllocsPerRun(200, pair)
	t.Logf("%.1f allocations per write+take pair", got)
	if got > maxPairAllocs {
		t.Fatalf("%.1f allocations per write+take pair, want ≤ %d", got, maxPairAllocs)
	}
}
