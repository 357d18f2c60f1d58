package space

import (
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// Kind names one space operation. Every layer — façade, transports,
// interceptors, the RPC service — speaks Op/Result keyed by Kind, so what
// a layer needs to know about an operation lives in the one table below.
type Kind uint8

// The operations. Commit/Abort take the transaction, and Renew/Cancel the
// lease, as an operand: handle operations travel the same chain as
// everything else.
const (
	OpWrite Kind = iota
	OpRead
	OpTake
	OpReadIfExists
	OpTakeIfExists
	OpReadAll
	OpTakeAll
	OpCount
	OpTypeCounts
	OpBeginTxn
	OpCommit
	OpAbort
	OpRenew
	OpCancel
	NumKinds
)

// kinds is the single per-operation table: name labels metrics, method is
// the RPC name on the wire (fault and scenario rules match on it), pri is
// the brownout class (diagnostics shed first, mutations never), mutates
// marks the ops whose success implies journal records a replica must
// confirm (renewals and aborts journal nothing of their own), and blocks
// marks the lookups that may park server-side for Op.Wait.
var kinds = [NumKinds]struct {
	name, method    string
	pri             int
	mutates, blocks bool
}{
	OpWrite:        {"write", "space.Write", transport.PriHigh, true, false},
	OpRead:         {"read", "space.Read", transport.PriNormal, false, true},
	OpTake:         {"take", "space.Take", transport.PriHigh, true, true},
	OpReadIfExists: {"read_if_exists", "space.ReadIfExists", transport.PriNormal, false, false},
	OpTakeIfExists: {"take_if_exists", "space.TakeIfExists", transport.PriHigh, true, false},
	OpReadAll:      {"read_all", "space.ReadAll", transport.PriLow, false, false},
	OpTakeAll:      {"take_all", "space.TakeAll", transport.PriHigh, true, false},
	OpCount:        {"count", "space.Count", transport.PriLow, false, false},
	OpTypeCounts:   {"type_counts", "space.TypeCounts", transport.PriLow, false, false},
	OpBeginTxn:     {"begin_txn", "space.TxnBegin", transport.PriHigh, false, false},
	OpCommit:       {"commit", "space.TxnCommit", transport.PriHigh, true, false},
	OpAbort:        {"abort", "space.TxnAbort", transport.PriHigh, false, false},
	OpRenew:        {"renew", "space.LeaseRenew", transport.PriHigh, false, false},
	OpCancel:       {"cancel", "space.LeaseCancel", transport.PriHigh, true, false},
}

// String returns the kind's snake_case name (metric label).
func (k Kind) String() string { return kinds[k].name }

// Method returns the kind's RPC method name.
func (k Kind) Method() string { return kinds[k].method }

// Priority returns the kind's brownout class (transport.Pri*).
func (k Kind) Priority() int { return kinds[k].pri }

// Mutates reports whether the kind's success implies journal records.
func (k Kind) Mutates() bool { return kinds[k].mutates }

// Blocks reports whether the kind may park for Op.Wait.
func (k Kind) Blocks() bool { return kinds[k].blocks }

// Takes reports whether the kind removes the entries it returns.
func (k Kind) Takes() bool { return k == OpTake || k == OpTakeIfExists || k == OpTakeAll }

// KindOf resolves an RPC method name.
func KindOf(method string) (Kind, bool) {
	for k := range kinds {
		if kinds[k].method == method {
			return Kind(k), true
		}
	}
	return 0, false
}

// Op is one space operation.
type Op struct {
	Kind Kind
	// Entry is the entry to write, or the template to match.
	Entry tuplespace.Entry
	// Txn is the transaction the op runs under (nil for none) — or, for
	// Commit/Abort, the transaction to complete.
	Txn Txn
	// Lease is Renew/Cancel's operand.
	Lease Lease
	// TTL is the lease for Write, BeginTxn and Renew (tuplespace.Forever
	// for none).
	TTL time.Duration
	// Wait bounds a blocking Read/Take (0 blocks until a match).
	Wait time.Duration
	// Max bounds ReadAll/TakeAll (<= 0 for no limit).
	Max int
	// Token makes a mutation idempotent: a replay carrying the same token
	// returns the original outcome instead of executing again. Zero means
	// none (a shard.Router then mints its own).
	Token tuplespace.OpToken
}

// Result is an operation's outcome; which fields are set follows Kind.
type Result struct {
	Entry   tuplespace.Entry   // Read, Take and their IfExists variants
	Entries []tuplespace.Entry // ReadAll, TakeAll
	Lease   Lease              // Write
	Txn     Txn                // BeginTxn
	N       int                // Count
	Counts  map[string]int     // TypeCounts
}

// Doer executes operations: a transport (Local, Proxy, shard.Router) or
// an interceptor chain ending in one.
type Doer interface {
	Do(Op) (Result, error)
}

// Facade is the typed JavaSpaces API written once over a Doer. The
// transports and Intercept embed it, so each of them implements only Do
// (and Close).
type Facade struct{ d Doer }

// NewFacade returns the typed methods over d.
func NewFacade(d Doer) Facade { return Facade{d} }

// Write stores entry e under t (nil for none) with lease ttl
// (tuplespace.Forever for none).
func (f Facade) Write(e tuplespace.Entry, t Txn, ttl time.Duration) (Lease, error) {
	r, err := f.d.Do(Op{Kind: OpWrite, Entry: e, Txn: t, TTL: ttl})
	return r.Lease, err
}

// Read returns a copy of a matching entry, waiting up to timeout.
func (f Facade) Read(tmpl tuplespace.Entry, t Txn, timeout time.Duration) (tuplespace.Entry, error) {
	r, err := f.d.Do(Op{Kind: OpRead, Entry: tmpl, Txn: t, Wait: timeout})
	return r.Entry, err
}

// Take removes and returns a matching entry, waiting up to timeout.
func (f Facade) Take(tmpl tuplespace.Entry, t Txn, timeout time.Duration) (tuplespace.Entry, error) {
	r, err := f.d.Do(Op{Kind: OpTake, Entry: tmpl, Txn: t, Wait: timeout})
	return r.Entry, err
}

// ReadIfExists is the non-blocking Read.
func (f Facade) ReadIfExists(tmpl tuplespace.Entry, t Txn) (tuplespace.Entry, error) {
	r, err := f.d.Do(Op{Kind: OpReadIfExists, Entry: tmpl, Txn: t})
	return r.Entry, err
}

// TakeIfExists is the non-blocking Take.
func (f Facade) TakeIfExists(tmpl tuplespace.Entry, t Txn) (tuplespace.Entry, error) {
	r, err := f.d.Do(Op{Kind: OpTakeIfExists, Entry: tmpl, Txn: t})
	return r.Entry, err
}

// ReadAll is the JavaSpaces05-style bulk read: up to max matching entries
// without blocking (max <= 0 for no limit).
func (f Facade) ReadAll(tmpl tuplespace.Entry, t Txn, max int) ([]tuplespace.Entry, error) {
	r, err := f.d.Do(Op{Kind: OpReadAll, Entry: tmpl, Txn: t, Max: max})
	return r.Entries, err
}

// TakeAll is the bulk take.
func (f Facade) TakeAll(tmpl tuplespace.Entry, t Txn, max int) ([]tuplespace.Entry, error) {
	r, err := f.d.Do(Op{Kind: OpTakeAll, Entry: tmpl, Txn: t, Max: max})
	return r.Entries, err
}

// Count returns the number of public entries matching tmpl.
func (f Facade) Count(tmpl tuplespace.Entry) (int, error) {
	r, err := f.d.Do(Op{Kind: OpCount, Entry: tmpl})
	return r.N, err
}

// TypeCounts returns live entries per type — the balance figure the
// router and operators read.
func (f Facade) TypeCounts() (map[string]int, error) {
	r, err := f.d.Do(Op{Kind: OpTypeCounts})
	return r.Counts, err
}

// BeginTxn starts a transaction with the given lease.
func (f Facade) BeginTxn(ttl time.Duration) (Txn, error) {
	r, err := f.d.Do(Op{Kind: OpBeginTxn, TTL: ttl})
	return r.Txn, err
}

// --- interceptors ---

// Intercept returns inner with fn around every operation: fn sees the Op
// on its way in, calls next.Do (or not), and sees the Result on its way
// out. Chains are plain composition fixed at wrap time, outermost last:
// Intercept(Intercept(local, replicate), gate).
//
// Handles are operands: a transaction an intercepted space hands out is
// bound to it, and a lease it hands out enters the chain at it, so
// Commit/Abort/Renew/Cancel re-enter the chain as Ops and meet the same
// interceptors as the operation that created them.
func Intercept(inner Space, fn func(op Op, next Doer) (Result, error)) Space {
	s := &intercepted{inner: inner, fn: fn}
	s.Facade = NewFacade(s)
	return s
}

type intercepted struct {
	Facade
	inner Space
	fn    func(Op, Doer) (Result, error)
}

// Do implements Space: unbind this layer's transaction on the way in,
// bind the inner layer's on the way out, and enter a written lease here.
func (s *intercepted) Do(op Op) (Result, error) {
	if bt, ok := op.Txn.(*boundTxn); ok {
		op.Txn = bt.t
	}
	res, err := s.fn(op, s.inner)
	if res.Txn != nil {
		res.Txn = &boundTxn{s, res.Txn}
	}
	if res.Lease.at != nil {
		res.Lease.at = s
	}
	return res, err
}

// Close implements Space.
func (s *intercepted) Close() error { return s.inner.Close() }

// NumShards forwards the ring size of whatever the chain ends in (a
// shard.Router reports its own), so no interceptor re-declares it.
func (s *intercepted) NumShards() int {
	if ns, ok := s.inner.(interface{ NumShards() int }); ok {
		return ns.NumShards()
	}
	return 1
}

type boundTxn struct {
	s *intercepted
	t Txn
}

func (t *boundTxn) Commit() error { _, err := t.s.Do(Op{Kind: OpCommit, Txn: t}); return err }
func (t *boundTxn) Abort() error  { _, err := t.s.Do(Op{Kind: OpAbort, Txn: t}); return err }
