package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

type echoArg struct {
	Msg string
	N   int
}

func init() {
	RegisterType(echoArg{})
	RegisterType([]float64{})
}

func newEchoServer() *Server {
	srv := NewServer()
	srv.Handle("echo", func(arg interface{}) (interface{}, error) {
		return arg, nil
	})
	srv.Handle("double", func(arg interface{}) (interface{}, error) {
		e := arg.(*echoArg)
		return &echoArg{Msg: e.Msg + e.Msg, N: e.N * 2}, nil
	})
	srv.Handle("fail", func(arg interface{}) (interface{}, error) {
		return nil, errors.New("boom")
	})
	srv.Handle("slow", func(arg interface{}) (interface{}, error) {
		time.Sleep(50 * time.Millisecond)
		return arg, nil
	})
	return srv
}

func TestInprocRoundTrip(t *testing.T) {
	n := NewNetwork(vclock.NewReal(), Loopback())
	n.Listen("svc", newEchoServer())
	c := n.Dial("svc")
	defer c.Close()
	got, err := c.Call("double", echoArg{Msg: "ab", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e := got.(*echoArg); e.Msg != "abab" || e.N != 6 {
		t.Fatalf("got %+v", e)
	}
}

func TestInprocNoAliasing(t *testing.T) {
	n := NewNetwork(vclock.NewReal(), Loopback())
	srv := NewServer()
	var captured []float64
	srv.Handle("keep", func(arg interface{}) (interface{}, error) {
		captured = arg.([]float64)
		return arg, nil
	})
	n.Listen("svc", srv)
	c := n.Dial("svc")
	orig := []float64{1, 2, 3}
	if _, err := c.Call("keep", orig); err != nil {
		t.Fatal(err)
	}
	orig[0] = 99
	if captured[0] == 99 {
		t.Fatal("server aliased caller memory; gob round-trip missing")
	}
}

func TestInprocErrors(t *testing.T) {
	n := NewNetwork(vclock.NewReal(), Loopback())
	n.Listen("svc", newEchoServer())
	c := n.Dial("svc")
	if _, err := c.Call("fail", echoArg{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	var re *RemoteError
	_, err := c.Call("nope", echoArg{})
	if !errors.As(err, &re) {
		t.Fatalf("missing method err = %v", err)
	}
	c2 := n.Dial("unbound")
	if _, err := c2.Call("echo", echoArg{}); !errors.Is(err, ErrNoSuchService) {
		t.Fatalf("unbound err = %v", err)
	}
	_ = c.Close()
	if _, err := c.Call("echo", echoArg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed err = %v", err)
	}
}

func TestInprocLatencyChargedOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	model := Model{Latency: 10 * time.Millisecond}
	n := NewNetwork(clk, model)
	n.Listen("svc", newEchoServer())
	var elapsed time.Duration
	clk.Run(func() {
		c := n.Dial("svc")
		start := clk.Now()
		if _, err := c.Call("echo", echoArg{Msg: "hi"}); err != nil {
			t.Error(err)
		}
		elapsed = clk.Since(start)
	})
	if elapsed != 20*time.Millisecond { // one hop each way
		t.Fatalf("RPC took %v of virtual time, want 20ms", elapsed)
	}
}

func TestInprocPerByteCost(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	n := NewNetwork(clk, Model{PerKB: time.Millisecond})
	srv := NewServer()
	srv.Handle("sink", func(arg interface{}) (interface{}, error) { return 0, nil })
	n.Listen("svc", srv)
	big := make([]float64, 8192) // ~64 KB payload once encoded
	for i := range big {
		big[i] = float64(i) + 0.12345 // non-zero: gob must ship full mantissas
	}
	var elapsed time.Duration
	clk.Run(func() {
		c := n.Dial("svc")
		start := clk.Now()
		if _, err := c.Call("sink", big); err != nil {
			t.Error(err)
		}
		elapsed = clk.Since(start)
	})
	if elapsed < 60*time.Millisecond {
		t.Fatalf("64KB transfer took %v, want >= ~64ms", elapsed)
	}
	_, bytes := n.Stats()
	if bytes < 64*1024 {
		t.Fatalf("accounted %d bytes, want >= 64KB", bytes)
	}
}

func TestModelCost(t *testing.T) {
	m := Model{Latency: time.Millisecond, PerKB: time.Millisecond}
	if got := m.Cost(0); got != time.Millisecond {
		t.Fatalf("Cost(0) = %v", got)
	}
	if got := m.Cost(2048); got != 3*time.Millisecond {
		t.Fatalf("Cost(2048) = %v", got)
	}
	if LAN2001().Latency <= 0 || Loopback().Cost(1<<20) != 0 {
		t.Fatal("canned models misconfigured")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", newEchoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("double", echoArg{Msg: "x", N: 21})
	if err != nil {
		t.Fatal(err)
	}
	if e := got.(*echoArg); e.N != 42 {
		t.Fatalf("got %+v", e)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", newEchoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			method := "echo"
			if i%4 == 0 {
				method = "slow" // slow calls must not block fast ones
			}
			got, err := c.Call(method, echoArg{N: i})
			if err != nil {
				errs <- err
				return
			}
			if got.(*echoArg).N != i {
				errs <- fmt.Errorf("call %d got %+v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", newEchoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var re *RemoteError
	if _, err := c.Call("fail", echoArg{}); !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Handle("hang", func(arg interface{}) (interface{}, error) {
		<-block
		return nil, nil
	})
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("hang", echoArg{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(block) // let the handler finish so Close can drain
	if err := l.Close(); err != nil {
		t.Logf("listener close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("client call never returned after server close")
	}
	_ = c.Close()
}

func TestTCPClientCloseUnblocksPendingCall(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Handle("hang", func(arg interface{}) (interface{}, error) {
		<-block
		return nil, nil
	})
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); l.Close() }()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("hang", echoArg{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded after client close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not unblocked by client Close")
	}
}

func TestTCPDialFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestReplyChannelReuse: a client hands an answered call's reply channel
// to its next call, and never one its connection's failure closed. The
// connection drops under calls in flight, and in the middle of a send;
// neither leaves a closed channel where a later call could draw it.
func TestReplyChannelReuse(t *testing.T) {
	srv := newEchoServer()
	release := make(chan struct{})
	srv.Handle("hang", func(arg interface{}) (interface{}, error) {
		<-release
		return arg, nil
	})
	defer close(release)
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := func(wrap func(net.Conn) net.Conn) *tcpClient {
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return newTCPClient(wrap(conn)).(*tcpClient)
	}
	plain := func(c net.Conn) net.Conn { return c }
	noClosedIdle := func(what string, c *tcpClient) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, ch := range c.idle {
			select {
			case _, ok := <-ch:
				t.Fatalf("%s: an idle reply channel is not empty (open %v)", what, ok)
			default:
			}
		}
	}
	echo := func(what string, c Client, n int) {
		for i := 0; i < n; i++ {
			got, err := c.Call("echo", echoArg{Msg: "m", N: i})
			if err != nil {
				t.Fatalf("%s: call %d: %v", what, i, err)
			}
			if got.(*echoArg).N != i {
				t.Fatalf("%s: call %d answered %v", what, i, got)
			}
		}
	}

	// Calls in flight when the connection drops: their channels close.
	a := dial(plain)
	echo("warm-up", a, 10)
	const inFlight = 8
	failed := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := a.Call("hang", echoArg{})
			failed <- err
		}()
	}
	for {
		a.mu.Lock()
		n := len(a.pending)
		a.mu.Unlock()
		if n == inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.conn.Close()
	for i := 0; i < inFlight; i++ {
		if err := <-failed; !errors.Is(err, ErrClosed) {
			t.Fatalf("call in flight ended with %v, want ErrClosed", err)
		}
	}
	noClosedIdle("dropped connection", a)
	b := dial(plain)
	echo("fresh client", b, 1000)
	noClosedIdle("fresh client", b)
	b.Close()

	// A send that fails while the connection stays up returns its channel.
	c := dial(func(conn net.Conn) net.Conn { return &faultyConn{Conn: conn} })
	fc := c.conn.(*faultyConn)
	echo("warm-up", c, 1)
	fc.fail = func() error { return errors.New("send refused") }
	if _, err := c.Call("echo", echoArg{}); err == nil {
		t.Fatal("a refused send succeeded")
	}
	fc.fail = nil
	noClosedIdle("refused send", c)
	echo("after a refused send", c, 1000)
	c.Close()

	// The connection fails between the refused send and the call's cleanup:
	// fail has closed the channel, which must not be reused.
	d := dial(func(conn net.Conn) net.Conn { return &faultyConn{Conn: conn} })
	fd := d.conn.(*faultyConn)
	echo("warm-up", d, 1)
	fd.fail = func() error {
		d.fail(errors.New("connection dropped mid-send"))
		return errors.New("send failed")
	}
	if _, err := d.Call("echo", echoArg{}); err == nil {
		t.Fatal("a failed send succeeded")
	}
	d.mu.Lock()
	idle := len(d.idle)
	d.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d reply channels idle after fail closed the only one", idle)
	}
	if _, err := d.Call("echo", echoArg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on a failed client: %v, want ErrClosed", err)
	}
}

// faultyConn fails its writes with what fail returns, while fail is set.
type faultyConn struct {
	net.Conn
	fail func() error
}

func (c *faultyConn) Write(b []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail()
	}
	return c.Conn.Write(b)
}
