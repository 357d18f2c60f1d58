package space

import (
	"bytes"
	"testing"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestRemoteResultsShareNothing: over TCP and over the in-process network,
// a write followed by two reads returns equal values, and a client that
// changes the first result finds the second as it was written. The server
// answers both reads with the stored value; each reply is decoded into
// memory of the client's own.
func TestRemoteResultsShareNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		dial func(t *testing.T, srv *transport.Server) transport.Client
	}{
		{"tcp", func(t *testing.T, srv *transport.Server) transport.Client {
			ln, err := transport.ListenTCP("127.0.0.1:0", srv)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			c, err := transport.DialTCP(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"inproc", func(t *testing.T, srv *transport.Server) transport.Client {
			n := transport.NewNetwork(vclock.NewReal(), transport.Loopback())
			n.Listen("space", srv)
			return n.Dial("space")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := transport.NewServer()
			NewService(NewLocal(vclock.NewReal()), srv)
			p := NewProxy(tc.dial(t, srv))
			defer p.Close()
			sent := pairTask{Job: "k", ID: 7, Payload: []byte("payload")}
			if _, err := p.Write(sent, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
			sent.Payload[0] = 'X' // the client's own value, after the write
			first, err := p.Read(pairTask{Job: "k"}, nil, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			second, err := p.ReadIfExists(pairTask{Job: "k"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			a, b := first.(pairTask), second.(pairTask)
			if a.ID != b.ID || !bytes.Equal(a.Payload, b.Payload) || string(a.Payload) != "payload" {
				t.Fatalf("reads returned %+v and %+v, want the written entry twice", a, b)
			}
			a.Payload[0] = 'Y'
			if string(b.Payload) != "payload" {
				t.Fatalf("changing the first read's result changed the second's: %q", b.Payload)
			}
			taken, err := p.Take(pairTask{Job: "k"}, nil, time.Second)
			if err != nil || string(taken.(pairTask).Payload) != "payload" {
				t.Fatalf("take = %+v, %v; want the entry as written", taken, err)
			}
		})
	}
}

// TestServiceStoresTheDecodedValue: the value a Write request decoded to is
// the one the store keeps, and the store answers a read with it, for the
// reply to encode: the frame made the only copy. Local.Do, for an
// in-process caller, copies on the way in and on the way out.
func TestServiceStoresTheDecodedValue(t *testing.T) {
	local := NewLocal(vclock.NewReal())
	srv := transport.NewServer()
	NewService(local, srv)
	decoded := pairTask{Job: "wire", ID: 1, Payload: []byte("decoded")}
	if _, err := srv.Dispatch(OpWrite.Method(), &writeArgs{Entry: decoded}); err != nil {
		t.Fatal(err)
	}
	reply, err := srv.Dispatch(OpReadIfExists.Method(), &lookupArgs{Tmpl: pairTask{Job: "wire"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reply.(*lookupReply).Entry.(pairTask).Payload; &got[0] != &decoded.Payload[0] {
		t.Fatal("the service's read answered with a copy of the decoded value, or the store kept a copy of it")
	}

	res, err := local.Do(Op{Kind: OpReadIfExists, Entry: pairTask{Job: "wire"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Entry.(pairTask).Payload; &got[0] == &decoded.Payload[0] {
		t.Fatal("Local.Do handed an in-process caller the stored value")
	}
}

// TestLocalDoCopiesBothWays: an in-process caller that changes an entry
// after writing it, and the entry a take handed it, changes nothing in
// the store: a later read, and a tokened take's retry answered from the
// memo, see the entries as written.
func TestLocalDoCopiesBothWays(t *testing.T) {
	local := NewLocal(vclock.NewReal())
	for id := 1; id <= 2; id++ {
		e := pairTask{Job: "local", ID: id, Payload: []byte("as written")}
		if _, err := local.Do(Op{Kind: OpWrite, Entry: e}); err != nil {
			t.Fatal(err)
		}
		e.Payload[0] = 'X'
	}
	tok := tuplespace.OpToken{Client: "c", Seq: 1}
	res, err := local.Do(Op{Kind: OpTake, Entry: pairTask{Job: "local", ID: 1}, Wait: time.Second, Token: tok})
	if err != nil {
		t.Fatal(err)
	}
	taken := res.Entry.(pairTask)
	if string(taken.Payload) != "as written" {
		t.Fatalf("take = %q, want the entry as written", taken.Payload)
	}
	taken.Payload[0] = 'Y'

	res, err = local.Do(Op{Kind: OpReadIfExists, Entry: pairTask{Job: "local"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Entry.(pairTask); got.ID != 2 || string(got.Payload) != "as written" {
		t.Fatalf("read = %+v, want entry 2 as written", got)
	}
	res, err = local.Do(Op{Kind: OpTake, Entry: pairTask{Job: "local", ID: 1}, Wait: time.Second, Token: tok})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Entry.(pairTask); got.ID != 1 || string(got.Payload) != "as written" {
		t.Fatalf("the take's retry = %+v, want entry 1 as written", got)
	}
}
