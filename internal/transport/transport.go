// Package transport provides the messaging substrate used by every remote
// interaction in this repository: a small binary RPC protocol with two
// bindings. The TCP binding carries real deployments (cmd/master,
// cmd/worker, …). The in-process binding routes calls through a configurable
// network model (per-message latency plus per-byte cost) charged to the
// caller's clock, which is what lets the experiment harness run a simulated
// multi-node cluster — with 2001-era LAN costs — under the virtual clock.
//
// A message is one length-prefixed frame (frame.go): a fixed binary header
// — call id, method, deadline, priority, error code — and the argument or
// result encoded exactly once by the compiled codec in internal/enc, whose
// per-connection type table sends each type's descriptor once per
// connection instead of once per call. Both bindings build and parse the
// same frames, so the simulator is charged the bytes TCP would carry.
// Concrete types crossing the wire inside an `any` must be registered with
// RegisterType (the analogue of Java serialization's class registry).
//
// ServiceGate models a server's CPU as a FIFO queue; the space service's
// admission controller charges it (AdmitBy), no server middleware does.
// Backoff is the one retry policy: its zero value is the shared jittered
// schedule the dials use.
package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"gospaces/internal/enc"
)

// RemoteError carries an error returned by the remote side of a call: its
// text, and — for the failures the wire protocol itself defines, such as
// ErrNoSuchMethod or a codec error decoding the argument — the sentinel it
// stands for, reachable with errors.Is. A sentinel registered with
// RegisterErrors comes back as itself instead.
type RemoteError struct {
	Method string
	Msg    string
	cause  error
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Unwrap returns the sentinel the remote failure stands for, if any.
func (e *RemoteError) Unwrap() error { return e.cause }

// Errors returned by transport operations.
var (
	ErrNoSuchMethod  = errors.New("transport: no such method")
	ErrNoSuchService = errors.New("transport: no service at address")
	ErrClosed        = errors.New("transport: connection closed")
)

// RegisterType registers a concrete type for transmission inside any-typed
// RPC arguments and results. Registration is shared with the journal/WAL
// layer (see internal/enc): one call covers the wire and the durable log.
func RegisterType(v interface{}) { enc.RegisterType(v) }

// Handler processes one RPC method. A struct argument arrives as a *T
// lent for the call (enc.DecodeLent): the handler may use it until it
// returns and keeps nothing of the struct itself, only what it points at.
// A struct in an enc.Lent field of the argument arrives lent too, as a *T
// that lives for the call alone: both bindings release it once the
// response is encoded (enc.ReleaseLent), even where they leave the
// argument itself, so the handler keeps nothing of it and hands it to
// nothing that outlives the call.
// A struct result is the transport's once returned, which releases it
// after sending: it must be the handler's to give — lent (enc.Lend),
// fresh, or the argument itself. An enc.View in the argument reads the
// request frame in place, which the call holds until its response is
// encoded: the handler copies what it keeps of one.
type Handler func(arg interface{}) (interface{}, error)

// Server dispatches method calls to registered handlers. It is shared by
// both bindings. Registration is synchronized with dispatch, so a service
// may be rebound at runtime — the durable space server re-registers its
// handlers after recovering a crashed shard.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewServer returns an empty server.
func NewServer() *Server { return &Server{handlers: make(map[string]Handler)} }

// Handle registers h for method name, replacing any previous handler.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// WrapPrefix replaces every registered handler h whose method name starts
// with prefix with mw(method, h) — middleware over one service's methods
// that leaves unrelated ones on the same server alone; an empty prefix
// wraps them all.
func (s *Server) WrapPrefix(prefix string, mw func(method string, next Handler) Handler) {
	s.mu.Lock()
	for m, h := range s.handlers {
		if strings.HasPrefix(m, prefix) {
			s.handlers[m] = mw(m, h)
		}
	}
	s.mu.Unlock()
}

// Dispatch invokes the handler for method.
func (s *Server) Dispatch(method string, arg interface{}) (interface{}, error) {
	s.mu.RLock()
	h, ok := s.handlers[method]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchMethod, method)
	}
	return h(arg)
}

// handler returns the handler for a method name as a frame carries it, or
// an ErrNoSuchMethod error. Indexing the map with string(method) copies
// nothing: a name read off the socket is never turned into a string.
func (s *Server) handler(method []byte) (Handler, error) {
	s.mu.RLock()
	h := s.handlers[string(method)]
	s.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchMethod, method)
	}
	return h, nil
}

// Client is one side of an RPC connection.
type Client interface {
	// Call invokes method with arg and returns the result. Calls may be
	// issued concurrently. A struct argument may be sent as the struct or
	// a pointer to it (the bytes are the same); a struct result arrives as
	// a *T lent from its pool, which the caller may enc.Release once it
	// has copied out what it keeps.
	Call(method string, arg interface{}) (interface{}, error)
	// Close releases the connection.
	Close() error
}
