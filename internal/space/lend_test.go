package space

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// The wire structs of a call are lent (enc.Lend): these tests stand where
// a value released too early, or twice, would be handed to another call.

// serveTCP serves a fresh space over loopback TCP and returns a client
// connection to it.
func serveTCP(t *testing.T) transport.Client {
	t.Helper()
	srv := transport.NewServer()
	NewService(NewLocal(vclock.NewReal()), srv)
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.DialTCP(ln.Addr())
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); ln.Close() })
	return c
}

// churn runs n keyed write+take pairs through sp, each with its own
// payload, as a load that lends and releases every wire struct of a pair.
func churn(t *testing.T, sp Space, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 64)
		if _, err := sp.Write(pairTask{Job: "churn", ID: i, Payload: payload}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		e, err := sp.Take(pairTask{Job: "churn"}, nil, time.Second)
		if got, ok := e.(pairTask); err != nil || !ok || got.ID != i || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("churn pair %d took %#v, %v", i, e, err)
		}
	}
}

// TestTCPTakeResultOutlivesLaterCalls: the entry a take returns over TCP,
// and its payload, are the caller's. The reply struct that carried them
// goes back to its pool, and 1,000 later pairs on the same connection
// reuse it, without touching what the caller kept.
func TestTCPTakeResultOutlivesLaterCalls(t *testing.T) {
	p := NewProxy(serveTCP(t))
	want := pairTask{Job: "kept", ID: 42, Payload: bytes.Repeat([]byte{0xAB}, 64)}
	if _, err := p.Write(want, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	e, err := p.Take(pairTask{Job: "kept"}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, p, 1000)
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("the taken entry became %#v after later calls, want %#v", e, want)
	}
}

// TestParkedTakeSurvivesPoolChurn: a blocking take parked on a connection
// holds its lent argument, the template, for as long as it waits; 1,000
// pairs that lend and release the same struct types on that connection
// meanwhile leave it alone, and the take returns the entry it asked for.
func TestParkedTakeSurvivesPoolChurn(t *testing.T) {
	p := NewProxy(serveTCP(t))
	want := pairTask{Job: "parked", ID: 9, Payload: []byte("the parked take's entry")}
	type outcome struct {
		e   tuplespace.Entry
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		e, err := p.Take(pairTask{Job: "parked"}, nil, time.Minute)
		got <- outcome{e, err}
	}()
	churn(t, p, 1000)
	select {
	case o := <-got:
		t.Fatalf("the parked take returned %#v, %v before its entry was written", o.e, o.err)
	default:
	}
	if _, err := p.Write(want, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-got:
		if o.err != nil || !reflect.DeepEqual(o.e, want) {
			t.Fatalf("the parked take returned %#v, %v; want %#v", o.e, o.err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked take never returned")
	}
}

// heldClient delays the first write sent through it until release is
// closed, far past the proxy's op timeout, and reports whether the
// argument it was handed changed while the call was held.
type heldClient struct {
	transport.Client
	once    sync.Once
	held    chan struct{} // closed once the first write is held
	release chan struct{}
	changed chan error // the held call's verdict, then closed
}

func (c *heldClient) Call(method string, arg interface{}) (interface{}, error) {
	first := false
	if method == OpWrite.Method() {
		c.once.Do(func() { first = true })
	}
	if !first {
		return c.Client.Call(method, arg)
	}
	inner, _, _ := transport.Unframe(arg)
	a := inner.(*writeArgs)
	before := *a
	close(c.held)
	<-c.release
	if !reflect.DeepEqual(*a, before) {
		c.changed <- errors.New("the abandoned call's argument was lent to another call while it ran")
	}
	res, err := c.Client.Call(method, arg)
	close(c.changed)
	return res, err
}

// TestAbandonedCallArgumentNotReused: a call the op timeout abandons
// still runs in the background, and its argument is never taken back to
// the pool while it does: 100 later pairs lend the same struct type, and
// the held call still sends what it was given.
func TestAbandonedCallArgumentNotReused(t *testing.T) {
	c := &heldClient{Client: serveTCP(t), held: make(chan struct{}), release: make(chan struct{}), changed: make(chan error, 1)}
	p := NewProxy(c).WithOpTimeout(vclock.NewReal(), 20*time.Millisecond)
	_, err := p.Write(pairTask{Job: "abandoned", ID: 1, Payload: []byte("first")}, nil, tuplespace.Forever)
	if !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("held write: %v, want ErrOpTimeout", err)
	}
	<-c.held
	churn(t, p, 100)
	close(c.release)
	if err := <-c.changed; err != nil {
		t.Fatal(err)
	}
}
