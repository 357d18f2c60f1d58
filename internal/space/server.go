package space

import (
	"fmt"
	"sync/atomic"
	"time"

	"gospaces/internal/enc"
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
	Tmpl    enc.Lent // lent for the call by the service's transport
	TxnID   uint64
	Timeout time.Duration
	Max     int
	Tok     tuplespace.OpToken // zero = no idempotency token (takes only)
}

type lookupReply struct {
	Entry interface{}
}

type bulkReply struct {
	Entries []tuplespace.Entry
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

// The wire structs are lent (enc.Lend): wireArgs and wireReply take the
// struct they fill from its type's pool, and the receiver's transport
// decodes it into one. A Proxy releases its argument once Call has
// returned and its reply once wireResult has copied it out; the TCP
// binding releases a served call's argument and reply once the response
// is written. A lookup's template is lent too (an enc.Lent field): the
// service's transport decodes it into a struct from its type's pool and
// releases it once the response is written, on both bindings. The proxy
// never releases one: its template is the caller's, which the caller uses
// again.

// wireArgs encodes op as its RPC argument (client side); the handles
// travel as the ids the service minted for them.
func wireArgs(op Op, txnID, leaseID uint64) interface{} {
	switch op.Kind {
	case OpWrite:
		return enc.Lend(writeArgs{Entry: op.Entry, TxnID: txnID, TTL: op.TTL, Tok: op.Token})
	case OpBeginTxn, OpCommit, OpAbort:
		return enc.Lend(txnArgs{TxnID: txnID, TTL: op.TTL, Tok: op.Token})
	case OpRenew, OpCancel:
		return enc.Lend(leaseArgs{LeaseID: leaseID, TTL: op.TTL, Tok: op.Token})
	default:
		return enc.Lend(lookupArgs{Tmpl: op.Entry, TxnID: txnID, Timeout: op.Wait, Max: op.Max, Tok: op.Token})
	}
}

// wireOp is wireArgs' inverse (server side). It copies arg out, so the
// caller may release arg once it returns.
func wireOp(k Kind, arg interface{}) (op Op, txnID, leaseID uint64, err error) {
	op.Kind = k
	ok := false
	switch k {
	case OpWrite:
		if a, is := arg.(*writeArgs); is {
			op.Entry, op.TTL, op.Token, txnID, ok = a.Entry, a.TTL, a.Tok, a.TxnID, true
		}
	case OpBeginTxn, OpCommit, OpAbort:
		if a, is := arg.(*txnArgs); is {
			op.TTL, op.Token, txnID, ok = a.TTL, a.Tok, a.TxnID, true
		}
	case OpRenew, OpCancel:
		if a, is := arg.(*leaseArgs); is {
			op.TTL, op.Token, leaseID, ok = a.TTL, a.Tok, a.LeaseID, true
		}
	default:
		if a, is := arg.(*lookupArgs); is {
			op.Entry, op.Wait, op.Max, op.Token, txnID, ok = a.Tmpl, a.Timeout, a.Max, a.Tok, a.TxnID, true
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
		return enc.Lend(writeReply{LeaseID: leaseID})
	case OpBeginTxn, OpCommit, OpAbort:
		return enc.Lend(txnReply{TxnID: txnID})
	case OpReadAll, OpTakeAll:
		return enc.Lend(bulkReply{Entries: res.Entries})
	case OpCount:
		return enc.Lend(countReply{N: res.N})
	case OpTypeCounts:
		return enc.Lend(countsReply{Counts: res.Counts})
	default:
		return enc.Lend(lookupReply{Entry: res.Entry})
	}
}

// wireResult is wireReply's inverse (client side). It copies reply out
// and releases it.
func wireResult(reply interface{}) (res Result, txnID, leaseID uint64) {
	switch r := reply.(type) {
	case *writeReply:
		leaseID = r.LeaseID
	case *txnReply:
		txnID = r.TxnID
	case *lookupReply:
		res.Entry = r.Entry
	case *bulkReply:
		res.Entries = r.Entries
	case *countReply:
		res.N = r.N
	case *countsReply:
		res.Counts = r.Counts
	}
	enc.Release(reply)
	return res, txnID, leaseID
}

// svcIncarnation numbers Service instances within a process so the wire
// txn and lease IDs each instance hands out live in disjoint namespaces. A
// retried commit/abort/cancel that carries an ID from a dead incarnation
// must surface unknown-txn / expired-lease at the promoted replacement —
// never resolve an unrelated fresh handle that happens to share the same
// store id. Bare ids alias across a failover: every store counts its txn
// ids from 1, and a promoted standby, which holds each entry under its
// primary's id, mints the ids above the highest it mirrored — among them
// ids the dead primary handed out for entries it never shipped.
var svcIncarnation atomic.Uint64

// idBits is the width of the store id under a wire id's incarnation tag.
const idBits = 32

// A tag runs from tagMin up and wraps below tagEnd, so every wire id is a
// 6-byte uvarint (2^35 ≤ id < 2^42) however many services the process
// built before: a message's size, and with it a modeled wire time, does
// not depend on what ran earlier in the process. Ids alias only between
// services built tagEnd−tagMin apart; a retry reaches the replacement of
// its own shard, built a few services after it.
const (
	tagMin = 1 << 3
	tagEnd = 1 << (6*7 - idBits)
)

// nextBase returns the next service's namespace tag, shifted into place.
func nextBase() uint64 {
	return (tagMin + (svcIncarnation.Add(1)-1)%(tagEnd-tagMin)) << idBits
}

// Service exposes a Local space over a transport.Server. The master module
// runs one of these; workers and the network-management module reach it
// through Proxy. It owns nothing but the wire and keeps no state per
// handle: a wire txn id is the store's txn id and a wire lease id the
// entry's seq, each tagged with the service's incarnation.
type Service struct {
	local *Local
	// base is this incarnation's namespace tag, OR'd into the high bits
	// of every wire txn and lease ID the service hands out.
	base uint64
	// adm gates every handler: it unwraps the transport frame (deadline +
	// priority) and, once configured, enforces admission control. Always
	// installed so a framed argument never reaches a raw handler.
	adm Admission
}

// NewService wraps local and registers one handler per Kind on srv under
// the kind's wire method name. Every handler runs behind the service's
// admission controller (see Admission); an unconfigured controller just
// unwraps the RPC frame.
func NewService(local *Local, srv *transport.Server) *Service {
	s := &Service{local: local, base: nextBase()}
	for k := Kind(0); k < NumKinds; k++ {
		srv.Handle(k.Method(), s.adm.wrap(k, s.handler(k)))
	}
	return s
}

// Admission returns the service's admission controller for configuration
// and /healthz vitals.
func (s *Service) Admission() *Admission { return &s.adm }

// handler serves kind k. The op's entry was decoded for this call alone
// and its result is encoded into the reply and dropped, so it reaches the
// store through Local's decoded path, which copies neither. A lookup's
// template is the transport's to release once the response is written:
// by then the store has returned, and no waiter of the op matches against
// it.
func (s *Service) handler(k Kind) transport.Handler {
	return func(arg interface{}) (interface{}, error) {
		op, txnID, leaseID, err := wireOp(k, arg)
		if err != nil {
			return nil, err
		}
		if err := s.resolve(&op, txnID, leaseID); err != nil {
			return nil, err
		}
		res, err := s.local.do(op, true)
		if err != nil {
			return nil, err
		}
		switch k {
		case OpWrite:
			leaseID = s.base | res.Lease.id
		case OpBeginTxn:
			txnID = s.base | res.Txn.(*tuplespace.Txn).ID()
		}
		return wireReply(k, res, txnID, leaseID), nil
	}
}

// resolve turns the wire ids back into op's handle operands. A txn id of
// another incarnation fails the op, except a commit or abort: that runs
// with no transaction, so the store answers a tokened retry whose original
// executed from its memo and anything else as inactive. A lease id of
// another incarnation names no entry here (id 0), so the store answers it
// as expired, or from a tokened cancel's memo.
func (s *Service) resolve(op *Op, txnID, leaseID uint64) error {
	const low = 1<<idBits - 1
	if txnID != 0 {
		switch {
		case txnID&^low == s.base:
			op.Txn = s.local.TS.TxnFor(txnID & low)
		case op.Kind != OpCommit && op.Kind != OpAbort:
			return fmt.Errorf("space: unknown txn %d: %w", txnID, tuplespace.ErrTxnInactive)
		}
	}
	if op.Kind == OpRenew || op.Kind == OpCancel {
		seq := leaseID & low
		if leaseID&^low != s.base {
			seq = 0
		}
		op.Lease = Lease{id: seq}
	}
	return nil
}
