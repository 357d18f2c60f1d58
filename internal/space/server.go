package space

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// RPC argument and reply frames. Entries travel as any-typed payloads;
// concrete entry types must be registered with transport.RegisterType.
type writeArgs struct {
	Entry interface{}
	TxnID uint64 // 0 = none
	TTL   time.Duration
	Tok   tuplespace.OpToken // zero = no idempotency token
}

type writeReply struct {
	LeaseID uint64
}

type lookupArgs struct {
	Tmpl    interface{}
	TxnID   uint64
	Timeout time.Duration
	Max     int
	Tok     tuplespace.OpToken // zero = no idempotency token (takes only)
}

type lookupReply struct {
	Entry interface{}
}

type bulkReply struct {
	Entries []interface{}
}

type txnArgs struct {
	TxnID uint64
	TTL   time.Duration
	Tok   tuplespace.OpToken // commit/abort idempotency token
}

type txnReply struct {
	TxnID uint64
}

type leaseArgs struct {
	LeaseID uint64
	TTL     time.Duration
	Tok     tuplespace.OpToken // cancel idempotency token
}

type countReply struct {
	N int
}

type countsReply struct {
	Counts map[string]int
}

// wireArgs encodes op as its RPC argument frame (client side); the
// handles travel as the ids the service minted for them.
func wireArgs(op Op, txnID, leaseID uint64) interface{} {
	switch op.Kind {
	case OpWrite:
		return writeArgs{Entry: op.Entry, TxnID: txnID, TTL: op.TTL, Tok: op.Token}
	case OpBeginTxn, OpCommit, OpAbort:
		return txnArgs{TxnID: txnID, TTL: op.TTL, Tok: op.Token}
	case OpRenew, OpCancel:
		return leaseArgs{LeaseID: leaseID, TTL: op.TTL, Tok: op.Token}
	default:
		return lookupArgs{Tmpl: op.Entry, TxnID: txnID, Timeout: op.Wait, Max: op.Max, Tok: op.Token}
	}
}

// wireOp is wireArgs' inverse (server side).
func wireOp(k Kind, arg interface{}) (op Op, txnID, leaseID uint64, err error) {
	op.Kind = k
	var ok bool
	switch k {
	case OpWrite:
		var a writeArgs
		if a, ok = arg.(writeArgs); ok {
			op.Entry, op.TTL, op.Token, txnID = a.Entry, a.TTL, a.Tok, a.TxnID
		}
	case OpBeginTxn, OpCommit, OpAbort:
		var a txnArgs
		if a, ok = arg.(txnArgs); ok {
			op.TTL, op.Token, txnID = a.TTL, a.Tok, a.TxnID
		}
	case OpRenew, OpCancel:
		var a leaseArgs
		if a, ok = arg.(leaseArgs); ok {
			op.TTL, op.Token, leaseID = a.TTL, a.Tok, a.LeaseID
		}
	default:
		var a lookupArgs
		if a, ok = arg.(lookupArgs); ok {
			op.Entry, op.Wait, op.Max, op.Token, txnID = a.Tmpl, a.Timeout, a.Max, a.Tok, a.TxnID
		}
	}
	if !ok {
		err = fmt.Errorf("space: bad %s args %T", k, arg)
	}
	return op, txnID, leaseID, err
}

// wireReply encodes res as the kind's RPC reply (server side).
func wireReply(k Kind, res Result, txnID, leaseID uint64) interface{} {
	switch k {
	case OpWrite, OpRenew, OpCancel:
		return writeReply{LeaseID: leaseID}
	case OpBeginTxn, OpCommit, OpAbort:
		return txnReply{TxnID: txnID}
	case OpReadAll, OpTakeAll:
		out := make([]interface{}, len(res.Entries))
		for i, e := range res.Entries {
			out[i] = e
		}
		return bulkReply{Entries: out}
	case OpCount:
		return countReply{N: res.N}
	case OpTypeCounts:
		return countsReply{Counts: res.Counts}
	default:
		return lookupReply{Entry: res.Entry}
	}
}

// wireResult is wireReply's inverse (client side).
func wireResult(reply interface{}) (res Result, txnID, leaseID uint64) {
	switch r := reply.(type) {
	case writeReply:
		leaseID = r.LeaseID
	case txnReply:
		txnID = r.TxnID
	case lookupReply:
		res.Entry = r.Entry
	case bulkReply:
		res.Entries = make([]tuplespace.Entry, len(r.Entries))
		for i, e := range r.Entries {
			res.Entries[i] = e
		}
	case countReply:
		res.N = r.N
	case countsReply:
		res.Counts = r.Counts
	}
	return res, txnID, leaseID
}

// svcIncarnation numbers Service instances within a process so the wire
// txn and lease IDs each instance mints live in disjoint namespaces. A
// retried commit/abort/cancel that carries an ID minted by a dead
// incarnation must surface unknown-txn / expired-lease at the promoted
// replacement — never resolve an unrelated fresh handle that happens to
// share the same small per-node sequence number (both managers count
// from 1, so bare sequence numbers alias across a failover).
var svcIncarnation atomic.Uint64

// Service exposes a Local space over a transport.Server. The master module
// runs one of these; workers and the network-management module reach it
// through Proxy. It owns nothing but the wire: each handler turns its
// argument frame into an Op, resolves handle ids, and runs local.Do.
type Service struct {
	local *Local
	// base is this incarnation's namespace tag, OR'd into the high bits
	// of every wire txn and lease ID the service hands out.
	base uint64
	// adm gates every handler: it unwraps the transport frame (deadline +
	// priority) and, once configured, enforces admission control. Always
	// installed so a framed argument never reaches a raw handler.
	adm Admission

	mu     sync.Mutex
	txns   map[uint64]localTxn
	leases map[uint64]*tuplespace.EntryLease
	nextL  uint64
	// sweepAt is the lease-table size that triggers the next sweep of ids
	// whose entry is gone; it doubles with the surviving population, so
	// sweeping costs O(1) amortised per write.
	sweepAt int
}

// leaseSweepMin keeps small lease tables from sweeping on every write.
const leaseSweepMin = 1024

// NewService wraps local and registers one handler per Kind on srv under
// the kind's wire method name. Every handler runs behind the service's
// admission controller (see Admission); an unconfigured controller just
// unwraps the RPC frame.
func NewService(local *Local, srv *transport.Server) *Service {
	s := &Service{
		local:   local,
		base:    svcIncarnation.Add(1) << 32,
		txns:    make(map[uint64]localTxn),
		leases:  make(map[uint64]*tuplespace.EntryLease),
		nextL:   1,
		sweepAt: leaseSweepMin,
	}
	for k := Kind(0); k < NumKinds; k++ {
		srv.Handle(k.Method(), s.adm.wrap(k, s.handler(k)))
	}
	return s
}

// Admission returns the service's admission controller for configuration
// and /healthz vitals.
func (s *Service) Admission() *Admission { return &s.adm }

func (s *Service) handler(k Kind) transport.Handler {
	return func(arg interface{}) (interface{}, error) {
		op, txnID, leaseID, err := wireOp(k, arg)
		if err != nil {
			return nil, err
		}
		unknown := s.resolve(&op, txnID, leaseID)
		if unknown != nil && k != OpCommit && k != OpAbort {
			return nil, unknown
		}
		// A commit/abort for an id the table no longer holds still runs:
		// a tokened retry whose original executed is answered from the
		// memo (Local.finish); anything else comes back inactive.
		res, err := s.local.Do(op)
		if err != nil {
			if unknown != nil {
				err = unknown
			}
			return nil, err
		}
		switch k {
		case OpWrite:
			leaseID = s.addLease(res.Lease.(*tuplespace.EntryLease))
		case OpBeginTxn:
			lt := res.Txn.(localTxn)
			txnID = s.base | lt.t.ID()
			s.mu.Lock()
			s.txns[txnID] = lt
			s.mu.Unlock()
		}
		return wireReply(k, res, txnID, leaseID), nil
	}
}

// resolve turns the wire ids back into op's handle operands. Completing a
// transaction or cancelling a lease retires its id. An unknown lease id
// leaves op.Lease nil, which Local answers (expired, or a tokened
// cancel's memo).
func (s *Service) resolve(op *Op, txnID, leaseID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if txnID != 0 {
		t, ok := s.txns[txnID]
		if !ok {
			return fmt.Errorf("space: unknown txn %d: %w", txnID, tuplespace.ErrTxnInactive)
		}
		op.Txn = t
		if op.Kind == OpCommit || op.Kind == OpAbort {
			delete(s.txns, txnID)
		}
	}
	if l := s.leases[leaseID]; l != nil {
		op.Lease = l
		if op.Kind == OpCancel {
			delete(s.leases, leaseID)
		}
	}
	return nil
}

// addLease mints a wire id for l. Ids whose entry has since been taken,
// cancelled or expired are dropped when the table has doubled since the
// last sweep, so the table (and the stored values its leases pin) stays
// proportional to the live leases instead of growing with every write.
func (s *Service) addLease(l *tuplespace.EntryLease) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.base | s.nextL
	s.nextL++
	s.leases[id] = l
	if len(s.leases) >= s.sweepAt {
		for old, ol := range s.leases {
			if ol.Gone() {
				delete(s.leases, old)
			}
		}
		if s.sweepAt = 2 * len(s.leases); s.sweepAt < leaseSweepMin {
			s.sweepAt = leaseSweepMin
		}
	}
	return id
}
