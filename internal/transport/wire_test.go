package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

// requestFrame builds one request frame as a fresh connection's first.
func requestFrame(t testing.TB, id uint64, method string, arg interface{}) []byte {
	t.Helper()
	frame, err := appendRequest(nil, enc.NewEncoder(), id, method, arg)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// rawCall writes frame on conn and reads back one response frame.
func rawCall(t *testing.T, conn net.Conn, frame []byte) (header, []byte) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	h, body, err := parseFrame(resp)
	if err != nil {
		t.Fatal(err)
	}
	return h, body
}

// TestServerRejectsBadFrames: what a server does with each kind of bad
// input from a socket. A body it cannot decode fails that call with the
// error's own code and leaves the connection — and its type table — in
// service; a frame it cannot trust closes that connection and no other.
func TestServerRejectsBadFrames(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", newEchoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	good := requestFrame(t, 1, "echo", echoArg{Msg: "hi", N: 1})
	const body = headerBytes + len("echo") // where good's enc message starts
	mutate := func(f func(frame []byte) []byte) []byte { return f(append([]byte(nil), good...)) }

	// defined: whether the bad frame left echoArg's definition in the
	// server's table, which the encoder of the follow-up call must match.
	perCall := []struct {
		name    string
		frame   []byte
		want    error
		defined bool
	}{
		{"unknown method", requestFrame(t, 1, "nope", echoArg{}), ErrNoSuchMethod, true},
		{"unknown type id", mutate(func(f []byte) []byte {
			f = append(f[:body], 0, 0, 9) // plan mode, no definitions, type id 9
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}), enc.ErrUnknownTypeID, false},
		{"fingerprint mismatch", mutate(func(f []byte) []byte {
			f[bytes.Index(f, []byte("transport.echoArg"))+len("transport.echoArg")] ^= 0xff
			return f
		}), enc.ErrFingerprint, true},
		{"truncated body", mutate(func(f []byte) []byte {
			f = f[:len(f)-2]
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}), enc.ErrTruncated, true},
		{"string longer than the frame", mutate(func(f []byte) []byte {
			return append(f[:len(f)-4], 0xff, 0xff, 0xff, 0x7f) // Msg claims 256 MiB
		}), enc.ErrTruncated, true},
	}
	for _, tc := range perCall {
		t.Run(tc.name, func(t *testing.T) {
			conn := dial()
			h, msg := rawCall(t, conn, tc.frame)
			if h.id != 1 || h.flags&flagResponse == 0 {
				t.Fatalf("response header %+v", h)
			}
			if err := remoteError("", h.code, string(msg)); !errors.Is(err, tc.want) {
				t.Fatalf("code %d (%q), want %v", h.code, msg, tc.want)
			}
			// The same connection serves the next call, its type table in
			// step. (After the mismatch echoArg stays bad on this connection,
			// so that follow-up sends a type the table has not seen.)
			e := enc.NewEncoder()
			if tc.defined {
				if _, err := e.Encode(nil, echoArg{}); err != nil {
					t.Fatal(err)
				}
			}
			var arg interface{} = echoArg{Msg: "x", N: 2}
			if tc.want == enc.ErrFingerprint {
				arg = "plain string"
			}
			next, err := appendRequest(nil, e, 2, "echo", arg)
			if err != nil {
				t.Fatal(err)
			}
			if h, msg := rawCall(t, conn, next); h.id != 2 || h.code != 0 {
				t.Fatalf("follow-up call on the same connection: header %+v, %q", h, msg)
			}
		})
	}

	closes := []struct {
		name  string
		bytes []byte
	}{
		{"length prefix over the limit", []byte{0xff, 0xff, 0xff, 0xff}},
		{"frame shorter than a header", []byte{0, 0, 0, 3, 1, 2, 3}},
		{"method longer than the frame", mutate(func(f []byte) []byte {
			binary.BigEndian.PutUint16(f[22:], 0xffff)
			return f
		})},
		{"response sent to a server", mutate(func(f []byte) []byte { f[4] |= flagResponse; return f })},
	}
	for _, tc := range closes {
		t.Run(tc.name, func(t *testing.T) {
			bystander := dial()
			conn := dial()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("connection not closed: read %d bytes, %v", n, err)
			}
			if h, _ := rawCall(t, bystander, good); h.code != 0 {
				t.Fatalf("another connection was affected: %+v", h)
			}
		})
	}
}

// TestReadFrameAllocatesWhatArrives: the length prefix is judged before
// anything is allocated, and a prefix within the limit is backed only as
// far as bytes have actually come in.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, maxFrameBytes+1)
	buf, err := readFrame(frameSource(over), nil)
	if !errors.Is(err, ErrFrameTooLarge) || cap(buf) != 0 {
		t.Fatalf("oversized prefix: err %v, %d bytes allocated", err, cap(buf))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		readFrame(frameSource(over), nil)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 1024 {
		// the reader and the error, nothing frame-sized
		t.Fatalf("refusing an oversized prefix allocated %d bytes", perCall)
	}

	lying := append(binary.BigEndian.AppendUint32(nil, maxFrameBytes), make([]byte, 100)...)
	buf, err = readFrame(frameSource(lying), nil)
	if !errors.Is(err, enc.ErrTruncated) {
		t.Fatalf("short frame: %v", err)
	}
	if cap(buf) > readChunk {
		t.Fatalf("a %d-byte frame that delivered 100 bytes cost %d", maxFrameBytes, cap(buf))
	}

	// A frame larger than one chunk arrives whole, through a grown buffer.
	big := requestFrame(t, 1, "echo", make([]byte, 5*readChunk))
	buf, err = readFrame(frameSource(big), make([]byte, 0, 16))
	if err != nil || !bytes.Equal(buf, big[4:]) {
		t.Fatalf("large frame: %v, %d of %d bytes", err, len(buf), len(big)-4)
	}
}

// frameSource serves b to readFrame through the smallest buffer bufio has.
func frameSource(b []byte) *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 16) }

// fakeServer accepts one connection, reads one request frame and replies
// with whatever respond returns, then closes.
func fakeServer(t *testing.T, respond func(request header) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame, err := readFrame(bufio.NewReader(conn), nil)
		if err != nil {
			return
		}
		h, _, _ := parseFrame(frame)
		conn.Write(respond(h))
	}()
	return ln.Addr().String()
}

// TestClientSurfacesBadResponses: each way a response can be wrong reaches
// the caller of Call as its own typed error — never a panic, never a hang.
func TestClientSurfacesBadResponses(t *testing.T) {
	ok := func(h header) []byte { return appendResponse(nil, enc.NewEncoder(), h.id, echoArg{Msg: "hi"}, nil) }
	cases := []struct {
		name    string
		respond func(h header) []byte
		want    []error
	}{
		{"length prefix over the limit", func(header) []byte { return []byte{0x7f, 0xff, 0xff, 0xff} }, []error{ErrFrameTooLarge, ErrClosed}},
		{"connection cut mid-frame", func(h header) []byte { f := ok(h); return f[:len(f)-3] }, []error{enc.ErrTruncated, ErrClosed}},
		{"request frame sent to a client", func(h header) []byte { f := ok(h); f[4] &^= flagResponse; return f }, []error{enc.ErrCorrupt, ErrClosed}},
		{"unknown type id", func(h header) []byte {
			f := ok(h)
			f = append(f[:headerBytes], 0, 0, 9)
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}, []error{enc.ErrUnknownTypeID}},
		{"fingerprint mismatch", func(h header) []byte {
			f := ok(h)
			f[bytes.Index(f, []byte("transport.echoArg"))+len("transport.echoArg")] ^= 1
			return f
		}, []error{enc.ErrFingerprint}},
		{"truncated body", func(h header) []byte {
			f := ok(h)
			f = f[:len(f)-1]
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}, []error{enc.ErrTruncated}},
		{"remote decode failure", func(h header) []byte {
			return appendResponse(nil, enc.NewEncoder(), h.id, nil, enc.ErrFingerprint)
		}, []error{enc.ErrFingerprint, &RemoteError{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DialTCP(fakeServer(t, tc.respond))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			done := make(chan error, 1)
			go func() { _, err := c.Call("echo", echoArg{}); done <- err }()
			select {
			case err := <-done:
				for _, want := range tc.want {
					var re *RemoteError
					if _, isRemote := want.(*RemoteError); isRemote && errors.As(err, &re) {
						continue
					}
					if !errors.Is(err, want) {
						t.Errorf("error %v, want %v", err, want)
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Call hung")
			}
		})
	}
}

// TestFailedCallsLeaveOthersInFlight: per-call failures on a connection —
// an unknown method, an argument that cannot be encoded, a result that
// cannot be encoded — neither close it nor disturb a call parked on it.
func TestFailedCallsLeaveOthersInFlight(t *testing.T) {
	type unregistered struct{ X int }
	srv := newEchoServer()
	release := make(chan struct{})
	srv.Handle("park", func(arg interface{}) (interface{}, error) { <-release; return arg, nil })
	srv.Handle("unencodable", func(interface{}) (interface{}, error) { return unregistered{1}, nil })
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	parked := make(chan error, 1)
	go func() {
		res, err := c.Call("park", echoArg{N: 7})
		if err == nil && res.(*echoArg).N != 7 {
			err = errors.New("parked call got someone else's answer")
		}
		parked <- err
	}()

	var re *RemoteError
	var ute *enc.UnregisteredTypeError
	if _, err := c.Call("nope", echoArg{}); !errors.Is(err, ErrNoSuchMethod) || !errors.As(err, &re) {
		t.Errorf("unknown method: %v", err)
	}
	if _, err := c.Call("echo", unregistered{1}); !errors.As(err, &ute) {
		t.Errorf("unencodable argument: %v", err)
	}
	if _, err := c.Call("unencodable", echoArg{}); !errors.As(err, &re) {
		t.Errorf("unencodable result: %v", err)
	}
	if res, err := c.Call("double", echoArg{Msg: "a", N: 1}); err != nil || res.(*echoArg).N != 2 {
		t.Errorf("a good call after the failures: %v, %v", res, err)
	}
	close(release)
	select {
	case err := <-parked:
		if err != nil {
			t.Errorf("parked call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked call never returned")
	}
}

// TestDeadlineOutsideTheHeaderRange: the header holds 1678–2262. Beyond it
// a deadline means "none"; before it, "long past".
func TestDeadlineOutsideTheHeaderRange(t *testing.T) {
	for _, tc := range []struct {
		sent     time.Time
		zero     bool
		passedBy time.Time
	}{
		{time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), true, time.Time{}},
		{time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), false, time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		frame := requestFrame(t, 1, "m", Framed{Deadline: tc.sent, Pri: PriLow, Arg: 1})
		h, body, err := parseFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		arg, err := h.argument(enc.NewDecoder(), body)
		if err != nil {
			t.Fatal(err)
		}
		got := arg.(Framed)
		if got.Pri != PriLow || got.Arg != 1 || got.Deadline.IsZero() != tc.zero {
			t.Errorf("deadline %v arrived as %+v", tc.sent, got)
		}
		if !tc.zero && !got.Deadline.Before(tc.passedBy) {
			t.Errorf("deadline %v arrived as %v, not in the past", tc.sent, got.Deadline)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to everything that reads a socket:
// the frame reader, a server's read loop and a client's. None may panic or
// hang, and the frame reader may not allocate ahead of the bytes it is
// given by more than one chunk — so never more than maxFrameBytes.
func FuzzDecodeFrame(f *testing.F) {
	req := requestFrame(f, 1, "echo", Framed{Deadline: time.Unix(9, 9), Pri: PriHigh, Arg: echoArg{Msg: "m", N: 1}})
	f.Add(req)
	f.Add(appendResponse(nil, enc.NewEncoder(), 1, echoArg{Msg: "m"}, nil))
	f.Add(appendResponse(nil, enc.NewEncoder(), 1, nil, ErrNoSuchMethod))
	f.Add(append(append([]byte(nil), req...), req...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(req[:len(req)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := frameSource(data)
		for {
			frame, err := readFrame(r, nil)
			if cap(frame) > len(data)+readChunk {
				t.Fatalf("%d input bytes, %d allocated", len(data), cap(frame))
			}
			if err != nil {
				break
			}
			if h, body, err := parseFrame(frame); err == nil {
				h.argument(enc.NewDecoder(), body)
				h.result(enc.NewDecoder(), "m", body)
			}
		}

		finished := func(what string, done <-chan struct{}) {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s hung", what)
			}
		}

		// A server's read loop, its responses drained.
		ours, theirs := net.Pipe()
		served := make(chan struct{})
		go func() {
			(&TCPListener{srv: newEchoServer()}).serveConn(theirs)
			close(served)
		}()
		go io.Copy(io.Discard, ours)
		ours.Write(data)
		ours.Close()
		finished("server read loop", served)

		// A client's read loop, with one call pending on it.
		ours, theirs = net.Pipe()
		c := newTCPClient(theirs)
		called := make(chan struct{})
		go func() {
			c.Call("echo", echoArg{})
			close(called)
		}()
		readFrame(bufio.NewReader(ours), nil) // the request
		ours.Write(data)
		ours.Close()
		finished("client call", called)
		c.Close()
	})
}

// BenchmarkCall is one echo call of a small struct over each binding: two
// frames built and two parsed, with and without a socket between them.
func BenchmarkCall(b *testing.B) {
	srv := newEchoServer()
	network := NewNetwork(vclock.NewReal(), Loopback())
	network.Listen("echo", srv)
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	tcp, err := DialTCP(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer tcp.Close()
	arg := Frame(echoArg{Msg: "job-0001", N: 7}, time.Now().Add(time.Hour), PriHigh)
	for name, c := range map[string]Client{"inproc": network.Dial("echo"), "tcp": tcp} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call("echo", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
