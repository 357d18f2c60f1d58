package space

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// ErrOpTimeout fails a remote operation whose RPC exceeded the proxy's
// per-op deadline: the transport accepted the call but never replied (a
// hung or partitioned replica). It is deliberately distinct from
// tuplespace.ErrTimeout — a clean "no entry within the wait" — because a
// deadline expiry is a hard failure the shard router may cure by failing
// over, while a space timeout just means "keep looking".
var ErrOpTimeout = errors.New("space: remote operation deadline exceeded")

// The tuplespace sentinels a Service's handlers return cross the wire as
// fixed codes, so a Proxy's caller gets the sentinel itself back and
// errors.Is works against local and remote spaces alike. Append only: a
// sentinel's code is its position here.
func init() {
	transport.RegisterErrors(transport.SpaceErrors,
		tuplespace.ErrTimeout,
		tuplespace.ErrNoMatch,
		tuplespace.ErrTxnInactive,
		tuplespace.ErrLeaseExpired,
		tuplespace.ErrClosed,
		tuplespace.ErrNotStruct,
		tuplespace.ErrOverloaded,
		tuplespace.ErrDeadlineExpired,
	)
}

// Proxy is a client-side Space backed by a transport.Client talking to a
// Service. It is the analogue of the JavaSpaces proxy object a Jini client
// downloads from the lookup service.
type Proxy struct {
	Facade
	c transport.Client

	// Per-op deadline state (see WithOpTimeout). clock is only consulted
	// when opTimeout > 0.
	clock     vclock.Clock
	opTimeout time.Duration
}

// NewProxy wraps an RPC client as a Space.
func NewProxy(c transport.Client) *Proxy {
	p := &Proxy{c: c}
	p.Facade = NewFacade(p)
	return p
}

// WithOpTimeout bounds every remote call on the proxy: an RPC that has
// not replied within d past its own semantic wait fails with
// ErrOpTimeout. Blocking lookups add their space-level timeout to the
// bound (the server legitimately parks that long before answering), and
// a block-forever lookup stays unbounded — only the transport overhead is
// being policed, never the space semantics. Returns p for chaining.
func (p *Proxy) WithOpTimeout(clock vclock.Clock, d time.Duration) *Proxy {
	if clock == nil {
		clock = vclock.NewReal()
	}
	p.clock = clock
	p.opTimeout = d
	return p
}

// call runs op's RPC under the per-op deadline. A blocking lookup adds its
// own semantic wait to the bound, and a block-forever lookup (Wait 0:
// parks server-side by design) skips the deadline entirely. The RPC
// itself cannot be cancelled mid-flight — like a TCP client abandoning a
// socket, the caller stops waiting and the reply, if it ever comes, is
// discarded — but the deadline rides the RPC frame, so the server rejects
// the op unexecuted (and frees any parked waiter) once the client is gone.
// A call without a deadline goes unframed: the server takes the op's
// brownout class from its method. call releases arg, a lent wire struct,
// once Call has returned; an abandoned call's argument is never released,
// since its Call may still be encoding it.
func (p *Proxy) call(op Op, arg interface{}) (interface{}, error) {
	k := op.Kind
	method := k.Method()
	if p.opTimeout <= 0 || k.Blocks() && op.Wait <= 0 {
		res, err := p.c.Call(method, arg)
		enc.Release(arg)
		return res, err
	}
	bound := p.opTimeout
	if k.Blocks() {
		bound += op.Wait
	}
	framed := transport.Frame(arg, p.clock.Now().Add(bound), k.Priority())
	type outcome struct {
		res interface{}
		err error
	}
	w := p.clock.NewWaiter()
	var mu sync.Mutex
	var done *outcome
	g := vclock.NewGroup(p.clock)
	g.Go(func() {
		res, err := p.c.Call(method, framed)
		mu.Lock()
		done = &outcome{res, err}
		mu.Unlock()
		w.Wake()
	})
	w.Wait(bound)
	mu.Lock()
	defer mu.Unlock()
	if done == nil {
		return nil, fmt.Errorf("%w: %s after %v", ErrOpTimeout, method, bound)
	}
	enc.Release(arg)
	return done.res, done.err
}

// Dial connects to a space Service at a TCP address with connection
// timeout and retry, riding out the window between a service registering
// its address and its listener accepting.
func Dial(addr string) (*Proxy, error) {
	c, err := transport.DialTCPRetry(addr, transport.Backoff{})
	if err != nil {
		return nil, err
	}
	return NewProxy(c), nil
}

var _ Space = (*Proxy)(nil)

// proxyTxn is the client-side transaction handle: the service's wire id
// plus the proxy to send it through. A lease needs no handle: it carries
// the wire id itself.
type proxyTxn struct {
	p  *Proxy
	id uint64
}

func (t *proxyTxn) Commit() error { _, err := t.p.Do(Op{Kind: OpCommit, Txn: t}); return err }
func (t *proxyTxn) Abort() error  { _, err := t.p.Do(Op{Kind: OpAbort, Txn: t}); return err }

// Do implements Space: one RPC per op, the handles travelling as the wire
// ids the service minted for them.
func (p *Proxy) Do(op Op) (Result, error) {
	var txnID uint64
	if op.Txn != nil {
		pt, ok := op.Txn.(*proxyTxn)
		if !ok {
			return Result{}, ErrBadTxn
		}
		txnID = pt.id
	}
	reply, err := p.call(op, wireArgs(op, txnID, op.Lease.id))
	if err != nil {
		return Result{}, err
	}
	res, txnID, leaseID := wireResult(reply)
	switch op.Kind {
	case OpWrite:
		res.Lease = Lease{at: p, id: leaseID}
	case OpBeginTxn:
		res.Txn = &proxyTxn{p: p, id: txnID}
	}
	return res, nil
}

// Close implements Space.
func (p *Proxy) Close() error { return p.c.Close() }
