package space

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestStaleTxnIDDoesNotAliasAcrossServices pins the incarnation
// namespacing of wire txn ids. Two services in one process each mint
// their transactions from a per-node counter starting at 1; before the
// ids were incarnation-qualified, a commit retried against a promoted
// replacement (the RebindTxn failover path) could resolve an UNRELATED
// fresh transaction that happened to share the same sequence number and
// commit it — consuming its take locks with no writes published. The
// stale id must instead surface ErrTxnInactive at the replacement,
// leaving the replacement's own transactions untouched.
func TestStaleTxnIDDoesNotAliasAcrossServices(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())

	dead := NewLocal(clk)
	srvA := transport.NewServer()
	NewService(dead, srvA)
	net.Listen("dead", srvA)
	pa := NewProxy(net.Dial("dead"))

	promoted := NewLocal(clk)
	srvB := transport.NewServer()
	NewService(promoted, srvB)
	net.Listen("promoted", srvB)
	pb := NewProxy(net.Dial("promoted"))

	// The transaction whose primary "dies": first txn minted at A.
	txA, err := pa.BeginTxn(time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// An unrelated in-flight transaction at the replacement, holding a
	// take lock. It shares A's per-node sequence number (both are the
	// first txn their manager minted).
	if _, err := pb.Write(job{Name: "held", ID: ip(1)}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	txB, err := pb.BeginTxn(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Take(job{Name: "held"}, txB, time.Second); err != nil {
		t.Fatal(err)
	}

	// Failover retry: re-address txA's wire id at the replacement and
	// commit with a token, exactly as shard.retryFinish does.
	nt := RebindTxn(pb, txA)
	if nt == nil {
		t.Fatal("RebindTxn returned nil for proxy txn")
	}
	_, err = pb.Do(Op{Kind: OpCommit, Txn: nt, Token: tuplespace.OpToken{Client: "test", Seq: 1}})
	if !errors.Is(err, tuplespace.ErrTxnInactive) {
		t.Fatalf("stale commit err = %v, want ErrTxnInactive", err)
	}

	// txB must be unaffected: its take lock still held (entry invisible
	// to others), and it must still abort cleanly, republishing.
	if n, _ := pb.Count(job{Name: "held"}); n != 0 {
		t.Fatalf("take-locked entry visible outside txn: count = %d", n)
	}
	if err := txB.Abort(); err != nil {
		t.Fatalf("victim txn no longer active: %v", err)
	}
	if n, _ := pb.Count(job{Name: "held"}); n != 1 {
		t.Fatalf("entry lost after abort: count = %d, want 1", n)
	}
}

// TestStaleLeaseIDDoesNotAliasAcrossServices is the lease-side twin:
// service lease ids are minted per node from 1, so a cancel retried
// against a replacement must see ErrLeaseExpired — never cancel an
// unrelated lease that shares the sequence number.
func TestStaleLeaseIDDoesNotAliasAcrossServices(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())

	dead := NewLocal(clk)
	srvA := transport.NewServer()
	NewService(dead, srvA)
	net.Listen("dead2", srvA)
	pa := NewProxy(net.Dial("dead2"))

	promoted := NewLocal(clk)
	srvB := transport.NewServer()
	NewService(promoted, srvB)
	net.Listen("promoted2", srvB)
	pb := NewProxy(net.Dial("promoted2"))

	// First lease minted at each service: same sequence number.
	la, err := pa.Write(job{Name: "a", ID: ip(1)}, nil, tuplespace.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Write(job{Name: "b", ID: ip(2)}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}

	// Re-address A's lease, A's wire id, at B, as a failover retry would.
	if la.id == 0 {
		t.Fatalf("lease %+v carries no wire id", la)
	}
	if _, err := pb.Do(Op{Kind: OpCancel, Lease: la, Token: tuplespace.OpToken{Client: "test", Seq: 2}}); !errors.Is(err, tuplespace.ErrLeaseExpired) {
		t.Fatalf("stale cancel err = %v, want ErrLeaseExpired", err)
	}
	// B's own entry must still be present with its lease intact.
	if n, _ := pb.Count(job{Name: "b"}); n != 1 {
		t.Fatalf("unrelated entry cancelled: count = %d, want 1", n)
	}
}

// TestServiceKeepsNoPerHandleState: a wire id is the store's own id under
// the service's incarnation tag, so the service holds no table that could
// grow with the handles it hands out. After many write+take pairs and
// begin/abort rounds the store's seq index holds just the one live entry,
// no transaction is left, and that entry's lease still resolves.
func TestServiceKeepsNoPerHandleState(t *testing.T) {
	st := reflect.TypeOf(Service{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); f.Type.Kind() == reflect.Map || f.Type == reflect.TypeOf(sync.Mutex{}) {
			t.Fatalf("Service.%s is a %s", f.Name, f.Type)
		}
	}
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())
	local := NewLocal(clk)
	srv := transport.NewServer()
	NewService(local, srv)
	net.Listen("leases", srv)
	p := NewProxy(net.Dial("leases"))

	live, err := p.Write(job{Name: "live", ID: ip(0)}, nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10000; i++ {
		if _, err := p.Write(job{Name: "pair", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		if _, err := p.TakeIfExists(job{Name: "pair"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 1000; i++ {
		tx, err := p.BeginTxn(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if st := local.TS.Stats(); st.EntriesLive != 1 || st.TxnsLive != 0 {
		t.Fatalf("store indexes %d entries and %d txns, want 1 and 0", st.EntriesLive, st.TxnsLive)
	}
	if err := live.Renew(time.Hour); err != nil {
		t.Fatalf("live lease: renew: %v", err)
	}
	if err := live.Cancel(); err != nil {
		t.Fatalf("live lease cancel: %v", err)
	}
	if st := local.TS.Stats(); st.EntriesLive != 0 {
		t.Fatalf("store indexes %d entries after the cancel, want 0", st.EntriesLive)
	}
}
