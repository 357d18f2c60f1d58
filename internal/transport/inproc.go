package transport

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

// Model describes the cost of moving a message across the simulated
// network: a fixed per-message latency plus a serialization/transmission
// cost proportional to the size of the frame TCP would carry. The defaults in LAN2001
// approximate the paper's testbed: 100 Mbit/s switched Ethernet plus
// Jini/JavaSpaces marshalling overhead.
type Model struct {
	// Latency is charged once per message direction.
	Latency time.Duration
	// PerKB is charged per kilobyte of encoded frame (covers both
	// serialization CPU and wire time).
	PerKB time.Duration
	// SpaceOp is the server CPU one space operation consumes: every
	// serving node on the network admits requests through a FIFO service
	// gate of this cost, so a saturated server queues callers. Zero models
	// an infinitely fast server (no gate).
	SpaceOp time.Duration
}

// Cost returns the time to move n encoded bytes one way.
func (m Model) Cost(n int) time.Duration {
	return m.Latency + time.Duration(float64(m.PerKB)*float64(n)/1024)
}

// LAN2001 models the paper's 100 Mbit/s LAN with JVM serialization
// overheads: ~1 ms per RPC hop plus ~0.3 ms/KB.
func LAN2001() Model {
	return Model{Latency: time.Millisecond, PerKB: 300 * time.Microsecond}
}

// Loopback is a free network for unit tests.
func Loopback() Model { return Model{} }

// Network is an in-process network: a namespace of addresses backed by
// Servers, with Model costs charged to the calling process's clock. It is
// safe for concurrent use.
type Network struct {
	clock vclock.Clock
	model Model

	mu      sync.Mutex
	servers map[string]*Server

	bytesSent uint64
	calls     uint64
}

// NewNetwork returns an in-process network on the given clock.
func NewNetwork(clock vclock.Clock, model Model) *Network {
	return &Network{clock: clock, model: model, servers: make(map[string]*Server)}
}

// Model returns the network's cost model.
func (n *Network) Model() Model { return n.model }

// Listen binds srv to addr, replacing any previous binding.
func (n *Network) Listen(addr string, srv *Server) {
	n.mu.Lock()
	n.servers[addr] = srv
	n.mu.Unlock()
}

// Unlisten removes the binding at addr.
func (n *Network) Unlisten(addr string) {
	n.mu.Lock()
	delete(n.servers, addr)
	n.mu.Unlock()
}

// Dial returns a client for the service at addr. Dialing succeeds even if
// the address is not yet bound; calls fail with ErrNoSuchService until it
// is (mirroring UDP-style late binding, and keeping construction order
// flexible).
func (n *Network) Dial(addr string) Client {
	return &inprocClient{net: n, addr: addr, requests: newWire(), responses: newWire()}
}

// Stats returns cumulative traffic counters.
func (n *Network) Stats() (calls, bytesSent uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.calls, n.bytesSent
}

type inprocClient struct {
	net    *Network
	addr   string
	mu     sync.Mutex
	closed bool

	// The two directions of this client's "connection": each a codec pair
	// whose type table persists across calls, as a TCP connection's does.
	requests, responses *wire
}

// wire is one direction of an in-process connection: what a TCP peer pair
// does with a socket between them, done back to back. A message is built
// into a frame and parsed out of it again under one lock, so the frame's
// length is what the network model is charged, the receiver's copy shares
// no memory with the sender's, and both ends see messages in one order. An
// argument that borrowed its frame (an enc.View) keeps it: the wire builds
// the next message in a buffer of its own.
// The length charged leaves out a message's one-time type definitions:
// which of two concurrent first calls carries them is a race, and a
// simulated run must cost the same every time it is replayed.
type wire struct {
	mu  sync.Mutex
	enc *enc.Encoder
	dec *enc.Decoder
	buf []byte
}

func newWire() *wire { return &wire{enc: enc.NewEncoder(), dec: enc.NewDecoder()} }

// request carries (method, arg) across and returns what a handler is to
// receive, with the frame's size.
func (w *wire) request(method string, arg interface{}) (interface{}, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := appendRequest(w.buf[:0], w.enc, 0, method, arg)
	if err != nil {
		return nil, 0, err
	}
	h, body, err := parseFrame(frame[4:])
	if err != nil {
		w.buf = recycle(frame)
		return nil, 0, err
	}
	got, err := h.argument(w.dec, body)
	if w.dec.Borrowed() {
		w.buf = nil // the argument keeps the frame
	} else {
		w.buf = recycle(frame)
	}
	return got, len(frame) - w.enc.DefinitionBytes(), err
}

// response carries a handler's (res, err) back and returns what the caller
// is to receive, with the frame's size.
func (w *wire) response(method string, res interface{}, err error) (interface{}, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame := appendResponse(w.buf[:0], w.enc, 0, res, err)
	w.buf = recycle(frame)
	h, body, err := parseFrame(frame[4:])
	if err != nil {
		return nil, 0, err
	}
	got, err := h.result(w.dec, method, body)
	return got, len(frame) - w.enc.DefinitionBytes(), err
}

// Call implements Client: it charges the request across the modeled
// network, dispatches, and charges the response — result or error — back.
// The request and response cross as the frames the TCP binding would send,
// so the callee never aliases caller memory and the network model is
// charged the true encoded size.
func (c *inprocClient) Call(method string, arg interface{}) (interface{}, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()

	n := c.net
	n.mu.Lock()
	srv := n.servers[c.addr]
	n.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchService, c.addr)
	}

	arg, size, err := c.requests.request(method, arg)
	if err != nil {
		return nil, err
	}
	n.account(size, true)
	n.clock.Sleep(n.model.Cost(size))

	// The argument the handler was lent is not released: the handler may
	// have handed it on, and nothing here knows for how long. Its result
	// is released once encoded, as the TCP binding releases it, and so are
	// the structs in its Lent fields, which live for the call alone.
	out, err := srv.Dispatch(method, arg)
	res, size, err := c.responses.response(method, out, err)
	releaseResult(arg, out)
	inner, _, _ := Unframe(arg)
	enc.ReleaseLent(inner)
	n.account(size, false)
	n.clock.Sleep(n.model.Cost(size))
	return res, err
}

// Close implements Client.
func (c *inprocClient) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (n *Network) account(b int, isCall bool) {
	n.mu.Lock()
	if isCall {
		n.calls++
	}
	n.bytesSent += uint64(b)
	n.mu.Unlock()
}
