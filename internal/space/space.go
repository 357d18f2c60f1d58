// Package space exposes a tuplespace.Space as a network service — the
// analogue of running JavaSpaces (Outrigger) as a Jini service — and
// defines the Space interface through which the framework's master and
// worker modules operate, so that the same code runs against a local
// space, an in-process simulated-network proxy, or a TCP proxy.
package space

import (
	"errors"
	"fmt"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// Txn is a transaction handle usable with Space operations.
type Txn interface {
	// Commit completes the transaction.
	Commit() error
	// Abort cancels the transaction, undoing provisional takes/writes.
	Abort() error
}

// Lease controls a written entry's lifetime. It is a value that every
// layer a write comes back through passes on without allocating, each
// setting the field it owns: the innermost one (Local, Proxy) the id, a
// shard.Router the shard handle it issued the write on, and every layer
// the entry point. Renew and Cancel enter the chain there as Ops, so they
// meet the same interceptors as the write that made the lease. The zero
// Lease leases nothing: Renew and Cancel answer ErrLeaseExpired.
type Lease struct {
	at    Doer   // where Renew and Cancel enter: the outermost layer the write came back through
	shard Doer   // the shard handle a router issued the write on; nil outside a router
	id    uint64 // the entry's id in its store (Local), or the service's wire id (Proxy)
}

// Renew extends the entry's lease to ttl from now.
func (l Lease) Renew(ttl time.Duration) error {
	if l.at == nil {
		return tuplespace.ErrLeaseExpired
	}
	_, err := l.at.Do(Op{Kind: OpRenew, Lease: l, TTL: ttl})
	return err
}

// Cancel removes the entry.
func (l Lease) Cancel() error {
	if l.at == nil {
		return tuplespace.ErrLeaseExpired
	}
	_, err := l.at.Do(Op{Kind: OpCancel, Lease: l})
	return err
}

// Issued returns l entered at router r, which issued the write on shard:
// what a shard.Router sets on a written lease. The zero Lease stays zero.
func (l Lease) Issued(r, shard Doer) Lease {
	if l.at != nil {
		l.at, l.shard = r, shard
	}
	return l
}

// Shard returns the shard handle a router issued the write on (see
// Issued), or nil.
func (l Lease) Shard() Doer { return l.shard }

// Space is the JavaSpaces API surface the framework uses: the typed
// methods (written once, by Facade) plus the Do they are sugar for.
type Space interface {
	Doer
	Write(e tuplespace.Entry, t Txn, ttl time.Duration) (Lease, error)
	Read(tmpl tuplespace.Entry, t Txn, timeout time.Duration) (tuplespace.Entry, error)
	Take(tmpl tuplespace.Entry, t Txn, timeout time.Duration) (tuplespace.Entry, error)
	ReadIfExists(tmpl tuplespace.Entry, t Txn) (tuplespace.Entry, error)
	TakeIfExists(tmpl tuplespace.Entry, t Txn) (tuplespace.Entry, error)
	ReadAll(tmpl tuplespace.Entry, t Txn, max int) ([]tuplespace.Entry, error)
	TakeAll(tmpl tuplespace.Entry, t Txn, max int) ([]tuplespace.Entry, error)
	Count(tmpl tuplespace.Entry) (int, error)
	BeginTxn(ttl time.Duration) (Txn, error)
	// Close releases the client's connection (never the remote space).
	Close() error
}

// ErrBadTxn is returned when a transaction handle from a different Space
// implementation is supplied.
var ErrBadTxn = errors.New("space: transaction does not belong to this space")

// --- local transport ---

// Local adapts an in-process tuplespace.Space to the Space interface. It is
// what the master module embeds: the master hosts the space and talks to it
// locally while everyone else goes through a proxy. A *tuplespace.Txn is
// its transaction, and its leases carry the entry's id in the store.
type Local struct {
	Facade
	TS *tuplespace.Space
}

// NewLocal creates a fresh space on clock.
func NewLocal(clock vclock.Clock) *Local {
	l := &Local{TS: tuplespace.New(clock)}
	l.Facade = NewFacade(l)
	return l
}

// Do implements Space. Entries cross it as copies: nothing the caller
// holds, before or after, aliases the store.
func (l *Local) Do(op Op) (Result, error) { return l.do(op, false) }

// do is Do; decoded says the op came off a wire. Its entry was decoded
// for this call alone and its result is encoded and dropped, so the store
// keeps the entry it is handed and answers a read or take with the stored
// value: the frame made the only copy either side needs.
func (l *Local) do(op Op, decoded bool) (res Result, err error) {
	var tx *tuplespace.Txn
	if op.Txn != nil {
		var ok bool
		if tx, ok = op.Txn.(*tuplespace.Txn); !ok {
			return res, ErrBadTxn
		}
	}
	switch op.Kind {
	case OpWrite:
		var el tuplespace.EntryLease
		if decoded {
			el, err = l.TS.WriteDecoded(op.Entry, tx, op.TTL, op.Token)
		} else {
			el, err = l.TS.WriteTok(op.Entry, tx, op.TTL, op.Token)
		}
		if err == nil {
			res.Lease = Lease{at: l, id: el.Seq()}
		}
	case OpRead, OpTake, OpReadIfExists, OpTakeIfExists:
		if decoded {
			res.Entry, err = l.TS.LookupShared(op.Kind.Takes(), op.Kind.Blocks(), op.Entry, tx, op.Wait, op.Token)
		} else {
			res.Entry, err = l.TS.Lookup(op.Kind.Takes(), op.Kind.Blocks(), op.Entry, tx, op.Wait, op.Token)
		}
	case OpReadAll:
		res.Entries, err = l.TS.ReadAll(op.Entry, tx, op.Max)
	case OpTakeAll:
		res.Entries, err = l.TS.TakeAllTok(op.Entry, tx, op.Max, op.Token)
	case OpCount:
		res.N, err = l.TS.Count(op.Entry)
	case OpTypeCounts:
		res.Counts = l.TS.TypeCounts()
	case OpBeginTxn:
		res.Txn = l.TS.Begin(op.TTL)
	case OpCommit:
		err = l.TS.Commit(tx, op.Token)
	case OpAbort:
		err = l.TS.Abort(tx, op.Token)
	case OpRenew:
		err = l.TS.LeaseFor(op.Lease.id).Renew(op.TTL)
	case OpCancel:
		err = l.TS.LeaseFor(op.Lease.id).CancelTok(op.Token)
	default:
		err = fmt.Errorf("space: unknown op kind %d", op.Kind)
	}
	return res, err
}

// Close implements Space; closing the local adapter closes the space.
func (l *Local) Close() error {
	l.TS.Close()
	return nil
}

var _ Space = (*Local)(nil)

func init() {
	transport.RegisterType(writeArgs{})
	transport.RegisterType(lookupArgs{})
	transport.RegisterType(txnArgs{})
	transport.RegisterType(leaseArgs{})
	transport.RegisterType(writeReply{})
	transport.RegisterType(lookupReply{})
	transport.RegisterType(txnReply{})
	transport.RegisterType(countReply{})
	transport.RegisterType(bulkReply{})
	transport.RegisterType(countsReply{})
}
