package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gospaces/internal/enc"
)

// TCPListener serves a Server over TCP.
type TCPListener struct {
	ln    net.Listener
	srv   *Server
	mu    sync.Mutex
	done  bool
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// ListenTCP starts serving srv on addr (e.g. "127.0.0.1:0") and returns
// the listener. Use Addr to discover the bound address.
func ListenTCP(addr string, srv *Server) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &TCPListener{ln: ln, srv: srv, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound network address.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting, closes live connections and waits for their read
// loops to end. It does not wait for handlers: one still running — a Take
// parked until a match arrives — finishes when the space wakes it, by a
// write or by closing, and its reply is dropped with the connection.
func (l *TCPListener) Close() error {
	l.mu.Lock()
	l.done = true
	for c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *TCPListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.done {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.serveConn(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// serveConn reads request frames in order — the decoder's type table must
// see them in the order the client's encoder wrote them — and hands each
// decoded call to a handler goroutine of the connection's own: an idle one
// when one is waiting, a new one when none is, so a handler that parks (a
// blocking Take) delays nobody, not even the Write that will wake it. A
// handler idle for handlerIdle exits, as all do when the connection ends.
// A frame this side cannot parse ends the connection; a body it cannot
// decode, or a method the server lacks, fails that one call.
func (l *TCPListener) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readChunk)
	dec := enc.NewDecoder()
	w := &responder{conn: conn, enc: enc.NewEncoder(), calls: make(chan call)}
	defer close(w.calls)
	var in []byte
	for {
		frame, err := readFrame(br, in)
		if err != nil {
			return
		}
		h, body, err := parseFrame(frame)
		if err != nil || h.flags&flagResponse != 0 {
			return
		}
		// Decode even for a method the server lacks: the body may define
		// types the requests behind it use.
		handler, herr := l.srv.handler(h.method)
		arg, err := h.argument(dec, body)
		if err == nil {
			err = herr
		}
		c := call{id: h.id, h: handler, arg: arg, err: err}
		if dec.Borrowed() {
			// The argument reads the frame in place (an enc.View): the
			// call holds it until answered, and the next frame goes into
			// one an earlier such call gave back.
			c.frame, in = frame, w.spare()
		} else {
			in = recycle(frame)
		}
		select {
		case w.calls <- c:
		default:
			go w.serve(c)
		}
	}
}

// handlerIdle bounds how long a served connection's handler goroutine
// waits for another call before it exits: between half of it and all of
// it, as it looks at a ticker of half the period. It is short beside the
// gaps of a quiet connection — a replica's heartbeat comes every 500 ms —
// so an idle connection is soon its read loop alone, and long beside the
// gap between a busy client's calls, so those reuse one goroutine and the
// stack it grew.
const handlerIdle = 100 * time.Millisecond

// call is one decoded request on its way to a handler goroutine.
type call struct {
	id    uint64
	h     Handler
	arg   interface{}
	err   error  // the request already failed: answer with this
	frame []byte // the request frame, when arg borrowed from it; else nil
}

// responder is the sending half of a served connection, which the
// connection's handler goroutines share.
type responder struct {
	conn  net.Conn
	calls chan call  // unbuffered: a send succeeds only to an idle handler
	mu    sync.Mutex // guards enc, out and writes
	enc   *enc.Encoder
	out   []byte

	spareMu sync.Mutex
	spares  [][]byte // frames answered calls borrowed from, emptied, for the read loop
}

// maxSpares bounds a connection's spare frames: only calls that borrowed
// their frame give one back, and those arrive one at a time.
const maxSpares = 4

// spare returns a frame an answered call gave back, or nil.
func (w *responder) spare() []byte {
	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	n := len(w.spares)
	if n == 0 {
		return nil
	}
	b := w.spares[n-1]
	w.spares[n-1] = nil
	w.spares = w.spares[:n-1]
	return b
}

// giveBack puts a borrowed frame on the spare list once its call is done
// with it, unless it is one recycle would drop or the list is full.
func (w *responder) giveBack(frame []byte) {
	if frame = recycle(frame); frame == nil {
		return
	}
	w.spareMu.Lock()
	if len(w.spares) < maxSpares {
		w.spares = append(w.spares, frame)
	}
	w.spareMu.Unlock()
}

// serve is one handler goroutine: it answers c, then every call handed to
// it while it waits, until it has waited a whole tick of handlerIdle/2
// without one or the connection ends. Checking a ticker, not resetting a
// timer per call, keeps the wait free.
func (w *responder) serve(c call) {
	w.answer(c)
	tick := time.NewTicker(handlerIdle / 2)
	defer tick.Stop()
	for busy := false; ; {
		select {
		case c, ok := <-w.calls:
			if !ok {
				return
			}
			w.answer(c)
			busy = true
		case <-tick.C:
			if !busy {
				return
			}
			busy = false
		}
	}
}

// answer runs one call's handler, unless the request already failed,
// writes the response, and then releases what the call was lent and what
// the handler answered: both are the responder's once the bytes are out.
// A request frame the argument borrowed goes back to the read loop once
// the response is encoded, when nothing reads it any more.
func (w *responder) answer(c call) {
	var res interface{}
	err := c.err
	if err == nil {
		res, err = c.h(c.arg)
	}
	w.mu.Lock()
	w.out = appendResponse(w.out[:0], w.enc, c.id, res, err)
	if c.frame != nil {
		w.giveBack(c.frame)
	}
	_, werr := w.conn.Write(w.out)
	w.out = recycle(w.out)
	w.mu.Unlock()
	if werr != nil {
		w.conn.Close()
	}
	releaseResult(c.arg, res)
	arg, _, _ := Unframe(c.arg)
	enc.ReleaseLent(arg)
	enc.Release(arg)
}

// recycle returns b emptied for reuse as a connection's frame buffer,
// unless one large message grew it past what the next ones will need.
func recycle(b []byte) []byte {
	if cap(b) > 16*readChunk {
		return nil
	}
	return b[:0]
}

// reply is what a call waits for: its decoded result or its error.
type reply struct {
	res interface{}
	err error
}

type tcpClient struct {
	conn net.Conn

	wmu  sync.Mutex // guards wenc, out and writes
	wenc *enc.Encoder
	out  []byte

	mu      sync.Mutex // guards nextID, pending, idle, closed, readErr
	nextID  uint64
	pending map[uint64]pendingCall
	// idle holds the reply channels of answered calls, empty, for the next
	// calls to reuse. A channel is in pending, in idle or held by one Call,
	// never two of these; fail closes only pending ones, so a closed
	// channel never reaches idle.
	idle    []chan reply
	closed  bool
	readErr error
}

// pendingCall is a call awaiting its response; the method names it in the
// error a failed response becomes.
type pendingCall struct {
	method string
	ch     chan reply
}

// DefaultDialTimeout bounds DialTCP's connection attempt. Before this
// existed a dead or unroutable listener hung the dialer for the kernel
// connect timeout (minutes on Linux).
const DefaultDialTimeout = 5 * time.Second

// DialTCP connects to a TCPListener at addr, bounded by DefaultDialTimeout.
// Calls on the returned client may be issued concurrently; blocked calls
// (e.g. a blocking Take at a remote space) do not prevent other calls from
// completing.
func DialTCP(addr string) (Client, error) {
	return DialTCPTimeout(addr, DefaultDialTimeout)
}

// DialTCPTimeout is DialTCP with an explicit connect timeout (<= 0 means
// no timeout beyond the kernel's).
func DialTCPTimeout(addr string, timeout time.Duration) (Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPClient(conn), nil
}

// newTCPClient wraps an established connection as a Client.
func newTCPClient(conn net.Conn) Client {
	c := &tcpClient{
		conn:    conn,
		wenc:    enc.NewEncoder(),
		nextID:  1,
		pending: make(map[uint64]pendingCall),
	}
	go c.readLoop()
	return c
}

// readLoop decodes response frames in order and hands each to its caller.
// A body that does not decode fails its own call; a frame that does not
// parse fails the connection and, with it, every call still pending.
func (c *tcpClient) readLoop() {
	br := bufio.NewReaderSize(c.conn, readChunk)
	dec := enc.NewDecoder()
	var in []byte
	for {
		frame, err := readFrame(br, in)
		var h header
		var body []byte
		if err == nil {
			h, body, err = parseFrame(frame)
		}
		if err == nil && h.flags&flagResponse == 0 {
			err = fmt.Errorf("%w: request frame on the client side", enc.ErrCorrupt)
		}
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		p, ok := c.pending[h.id]
		delete(c.pending, h.id)
		c.mu.Unlock()
		// Decode even an orphan's body: it may carry type definitions the
		// responses behind it depend on.
		var r reply
		r.res, r.err = h.result(dec, p.method, body)
		in = recycle(frame)
		if ok {
			p.ch <- r
		} else {
			enc.Release(r.res)
		}
	}
}

// fail closes the connection and releases every pending call with err.
func (c *tcpClient) fail(err error) {
	c.mu.Lock()
	c.readErr = err
	c.closed = true
	for id, p := range c.pending {
		close(p.ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.conn.Close()
}

// Call implements Client.
func (c *tcpClient) Call(method string, arg interface{}) (interface{}, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	var ch chan reply
	if n := len(c.idle); n > 0 {
		ch, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		ch = make(chan reply, 1)
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = pendingCall{method, ch}
	c.mu.Unlock()

	c.wmu.Lock()
	out, err := appendRequest(c.out[:0], c.wenc, id, method, arg)
	if err == nil {
		if _, err = c.conn.Write(out); err != nil {
			err = fmt.Errorf("transport: send: %w", err)
		}
	}
	c.out = recycle(out)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		// Still pending, ch is untouched. If not, fail closed it (or the
		// read loop answered a request that half went out): drop it.
		if _, ok := c.pending[id]; ok {
			delete(c.pending, id)
			c.idle = append(c.idle, ch)
		}
		c.mu.Unlock()
		return nil, err
	}
	r, ok := <-ch
	if !ok {
		return nil, fmt.Errorf("%w: %w", ErrClosed, c.cause())
	}
	c.mu.Lock()
	c.idle = append(c.idle, ch)
	c.mu.Unlock()
	return r.res, r.err
}

// cause is why the connection ended: the read loop's error, or a plain
// EOF when the peer (or Close) simply hung up.
func (c *tcpClient) cause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil && !errors.Is(c.readErr, io.EOF) && !errors.Is(c.readErr, net.ErrClosed) {
		return c.readErr
	}
	return io.EOF
}

// Close implements Client.
func (c *tcpClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
