package space

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// A lookup's template is lent to the service (an enc.Lent field): the
// service's transport decodes it into a struct from its type's pool and
// puts it back once the response is written. These tests stand where a
// template released too early, twice, or the caller's own, would show.

// served is one fresh space behind its service, reached over one network.
type served struct {
	local *Local
	dial  func() transport.Client // a new connection on each call
}

// networks serves a fresh space over the in-process network and another
// over loopback TCP.
func networks(t *testing.T) map[string]served {
	t.Helper()
	inproc := NewLocal(vclock.NewReal())
	srv := transport.NewServer()
	NewService(inproc, srv)
	n := transport.NewNetwork(vclock.NewReal(), transport.Loopback())
	n.Listen("space", srv)

	overTCP := NewLocal(vclock.NewReal())
	srv = transport.NewServer()
	NewService(overTCP, srv)
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return map[string]served{
		"inproc": {inproc, func() transport.Client { return n.Dial("space") }},
		"tcp": {overTCP, func() transport.Client {
			c, err := transport.DialTCP(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
	}
}

// TestServedLookupAllocatesNoTemplate: a served IfExists lookup and a
// count allocate, end to end, what a lease renewal does — a call whose
// argument carries no template — and the lookup one more, the entry the
// caller keeps. The template the service decodes comes from its pool and
// goes back to it. The caller's template is boxed once, outside the count.
func TestServedLookupAllocatesNoTemplate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for name, sv := range networks(t) {
		p := NewProxy(sv.dial())
		var tmpl tuplespace.Entry = pairTask{Job: "held", ID: 3}
		l, err := p.Write(tmpl, nil, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		renew := func() {
			if err := l.Renew(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		read := func() {
			if e, err := p.ReadIfExists(tmpl, nil); err != nil || e == nil {
				t.Fatalf("%s: read = %v, %v", name, e, err)
			}
		}
		count := func() {
			if n, err := p.Count(tmpl); err != nil || n != 1 {
				t.Fatalf("%s: count = %d, %v", name, n, err)
			}
		}
		renew() // first uses define the types on the connection
		read()
		count()
		base := testing.AllocsPerRun(200, renew)
		if got := testing.AllocsPerRun(200, read); got != base+1 {
			t.Errorf("%s: a served ReadIfExists allocates %.0f, want %.0f: a renewal's %.0f and the caller's entry", name, got, base+1, base)
		}
		if got := testing.AllocsPerRun(200, count); got != base {
			t.Errorf("%s: a served Count allocates %.0f, want a renewal's %.0f", name, got, base)
		}
	}
}

// TestParkedTakeKeepsItsTemplate: a blocking take parked on one
// connection keeps its lent template for as long as it waits, while
// another connection churns 10,000 lookups of the same type through the
// template pool. The template fixes a byte slice, which the parked matcher
// reads from the template itself: had the template gone back to its pool,
// it would now be zero (matching anything) or another lookup's. Written B
// then A, the take takes A alone.
func TestParkedTakeKeepsItsTemplate(t *testing.T) {
	for name, sv := range networks(t) {
		parked, churner := NewProxy(sv.dial()), NewProxy(sv.dial())
		type outcome struct {
			e   tuplespace.Entry
			err error
		}
		got := make(chan outcome, 1)
		go func() {
			e, err := parked.Take(pairTask{Payload: []byte("A")}, nil, time.Minute)
			got <- outcome{e, err}
		}()
		for sv.local.TS.Stats().Waiting == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 10_000; i++ {
			if e, err := churner.ReadIfExists(pairTask{ID: i, Payload: []byte("B")}, nil); !errors.Is(err, tuplespace.ErrNoMatch) {
				t.Fatalf("%s: churn lookup %d = %v, %v", name, i, e, err)
			}
		}
		b := pairTask{Job: "b", ID: 2, Payload: []byte("B")}
		a := pairTask{Job: "a", ID: 1, Payload: []byte("A")}
		for _, e := range []pairTask{b, a} {
			if _, err := churner.Write(e, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case o := <-got:
			if o.err != nil || !reflect.DeepEqual(o.e, a) {
				t.Fatalf("%s: the parked take returned %#v, %v; want %#v", name, o.e, o.err, a)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the parked take never returned", name)
		}
		if e, err := churner.TakeIfExists(pairTask{Job: "b"}, nil); err != nil || !reflect.DeepEqual(e, b) {
			t.Fatalf("%s: B after the take = %#v, %v; want %#v still there", name, e, err, b)
		}
	}
}

// TestCallerTemplateUnchanged: the template a caller hands a Proxy stays
// the caller's. One template value, reused for 1,000 lookups, each of them
// lending and releasing the service's copy, reads the same afterwards, its
// byte slice included.
func TestCallerTemplateUnchanged(t *testing.T) {
	for name, sv := range networks(t) {
		p := NewProxy(sv.dial())
		payload := []byte("the caller's template")
		var tmpl tuplespace.Entry = pairTask{Job: "reused", Payload: payload}
		for i := 0; i < 1000; i++ {
			e := pairTask{Job: "reused", ID: i, Payload: payload}
			if _, err := p.Write(e, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
			got, err := p.TakeIfExists(tmpl, nil)
			if err != nil || !reflect.DeepEqual(got, e) {
				t.Fatalf("%s: take %d = %#v, %v; want %#v", name, i, got, err, e)
			}
			if e, err := p.ReadIfExists(pairTask{Job: strconv.Itoa(i)}, nil); !errors.Is(err, tuplespace.ErrNoMatch) {
				t.Fatalf("%s: lookup %d = %v, %v; want no match", name, i, e, err)
			}
		}
		want := pairTask{Job: "reused", Payload: []byte("the caller's template")}
		if !reflect.DeepEqual(tmpl, want) || !bytes.Equal(payload, want.Payload) {
			t.Fatalf("%s: the caller's template became %#v", name, tmpl)
		}
	}
}

// TestReplayedArgumentReleasesTemplateOnce: the in-process binding leaves
// a served argument with whoever it was handed to, who may dispatch it
// again (the benchmark's ladder replays one through Server.Dispatch after
// its call returned). The replays succeed, and the template goes back to
// its pool once, with the call that decoded it: two lent decodes that
// follow, neither released, get two structs, where a template released
// per dispatch would sit in the pool once per replay and be handed to
// both.
func TestReplayedArgumentReleasesTemplateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops values at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool shard
	srv := transport.NewServer()
	NewService(NewLocal(vclock.NewReal()), srv)
	var served interface{}
	srv.WrapPrefix(OpReadIfExists.Method(), func(_ string, next transport.Handler) transport.Handler {
		return func(arg interface{}) (interface{}, error) {
			served = arg
			return next(arg)
		}
	})
	n := transport.NewNetwork(vclock.NewReal(), transport.Loopback())
	n.Listen("space", srv)
	p := NewProxy(n.Dial("space"))
	if _, err := p.Write(pairTask{Job: "replayed", ID: 1}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadIfExists(pairTask{Job: "replayed"}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Dispatch(OpReadIfExists.Method(), served); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	e, d := enc.NewEncoder(), enc.NewDecoder()
	var tmpls []interface{}
	for i := 0; i < 2; i++ {
		msg, err := e.Encode(nil, lookupArgs{Tmpl: pairTask{Job: "next"}})
		if err != nil {
			t.Fatal(err)
		}
		x, err := d.DecodeLent(msg)
		if err != nil {
			t.Fatal(err)
		}
		tmpls = append(tmpls, x.(*lookupArgs).Tmpl)
	}
	if tmpls[0] == tmpls[1] {
		t.Fatalf("two lent decodes got one template struct, %p: the pool held it twice", tmpls[0])
	}
}
