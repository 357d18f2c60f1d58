package transport

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// goroutinesIn counts the goroutines with fn on their stack; fn is a frame
// as a stack dump prints it, without the package path and with the opening
// parenthesis, which "created by" lines lack.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), fn)
}

const (
	handlerFrame  = ".(*responder).serve("
	readLoopFrame = ".(*TCPListener).serveConn("
)

// waitFor polls cond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	for end := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

func dialEcho(t *testing.T, srv *Server) (*TCPListener, Client) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(l.Addr())
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	return l, c
}

// goroutineID returns the calling goroutine's id, from the header line of
// its stack dump ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestSequentialCallsReuseOneHandler: calls one after another on a
// connection are answered by the handler goroutine that answered the one
// before — at most one more starts, when a request overtakes the previous
// handler on its way back to waiting. Every handler goroutine answers the
// call it was started for, so the goroutines the handler ran on are the
// ones the connection started.
func TestSequentialCallsReuseOneHandler(t *testing.T) {
	ran := map[string]bool{}
	var mu sync.Mutex
	srv := NewServer()
	srv.Handle("echo", func(arg interface{}) (interface{}, error) {
		id := goroutineID()
		mu.Lock()
		ran[id] = true
		mu.Unlock()
		return arg, nil
	})
	l, c := dialEcho(t, srv)
	defer l.Close()
	defer c.Close()
	for i := 0; i < 10000; i++ {
		got, err := c.Call("echo", echoArg{N: i})
		if err != nil || got.(*echoArg).N != i {
			t.Fatalf("call %d = %v, %v", i, got, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) > 2 {
		t.Fatalf("10000 sequential calls ran on %d handler goroutines, want ≤ 2", len(ran))
	}
}

// TestParkedHandlersDoNotBlockTheirWaker: 64 takes park on one connection,
// then 64 writes go out on the same connection, each waking one take. A
// fixed pool of handlers smaller than the parked calls would never run the
// writes, and every call would hang.
func TestParkedHandlersDoNotBlockTheirWaker(t *testing.T) {
	const n = 64
	bag := make(chan int, n)
	parked := make(chan struct{}, n)
	srv := NewServer()
	srv.Handle("take", func(interface{}) (interface{}, error) {
		parked <- struct{}{}
		return &echoArg{N: <-bag}, nil
	})
	srv.Handle("write", func(arg interface{}) (interface{}, error) {
		bag <- arg.(*echoArg).N
		return nil, nil
	})
	l, c := dialEcho(t, srv)
	defer l.Close()
	defer c.Close()

	var wg sync.WaitGroup
	got := make(chan int, n)
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Call("take", echoArg{})
			if err != nil {
				errs <- err
				return
			}
			got <- res.(*echoArg).N
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d takes parked", i, n)
		}
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Call("write", echoArg{N: i}); err != nil {
				errs <- err
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writes on the parked takes' connection never woke them")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(got)
	seen := make(map[int]bool)
	for v := range got {
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("takes received %d distinct writes, want %d", len(seen), n)
	}
}

// TestIdleConnectionKeepsOnlyItsReadLoop: once a connection has been idle
// for longer than handlerIdle, its handler goroutines are gone and its
// read loop alone is left; the next call starts one again.
func TestIdleConnectionKeepsOnlyItsReadLoop(t *testing.T) {
	if !waitFor(2*time.Second, func() bool { return goroutinesIn(handlerFrame) == 0 }) {
		t.Fatal("handler goroutines of earlier tests never exited")
	}
	l, c := dialEcho(t, newEchoServer())
	defer l.Close()
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Call("slow", echoArg{N: i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := goroutinesIn(handlerFrame); n == 0 {
		t.Fatal("no handler goroutine waits right after the calls")
	}
	time.Sleep(handlerIdle)
	// Beyond handlerIdle, only scheduling slack.
	if !waitFor(time.Second, func() bool { return goroutinesIn(handlerFrame) == 0 }) {
		t.Fatalf("%d handler goroutines left on a connection idle for %v", goroutinesIn(handlerFrame), handlerIdle)
	}
	if n := goroutinesIn(readLoopFrame); n != 1 {
		t.Fatalf("%d read loops, want the connection's one", n)
	}
	if _, err := c.Call("echo", echoArg{N: 1}); err != nil {
		t.Fatalf("call on the idle connection: %v", err)
	}
}

// TestListenerCloseLeavesParkedHandler: Close returns while a handler is
// still running; the handler finishes when its own wait ends and exits.
func TestListenerCloseLeavesParkedHandler(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	srv := NewServer()
	srv.Handle("hang", func(interface{}) (interface{}, error) {
		close(entered)
		<-release
		return nil, nil
	})
	l, c := dialEcho(t, srv)
	defer c.Close()
	called := make(chan error, 1)
	go func() {
		_, err := c.Call("hang", echoArg{})
		called <- err
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close waited for a parked handler")
	}
	select {
	case err := <-called:
		if err == nil {
			t.Fatal("the parked call succeeded after its listener closed")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the parked call outlived its connection")
	}
	close(release)
	if !waitFor(time.Second, func() bool { return goroutinesIn(handlerFrame) == 0 }) {
		t.Fatal("the released handler did not exit with its connection")
	}
}
