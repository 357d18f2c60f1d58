package tuplespace

import "errors"

var (
	// ErrNotStruct is returned when an entry or template is not a struct
	// or pointer to struct.
	ErrNotStruct = errors.New("entry is not a struct")
	// ErrTimeout is returned by Read/Take when no matching entry appears
	// within the requested timeout, and by IfExists variants when no
	// matching entry is present.
	ErrTimeout = errors.New("tuplespace: timed out waiting for matching entry")
	// ErrNoMatch is returned by ReadIfExists/TakeIfExists when no
	// matching entry exists at the time of the call.
	ErrNoMatch = errors.New("tuplespace: no matching entry")
	// ErrTxnInactive is returned when an operation names a transaction
	// that is no longer active (committed, aborted or expired).
	ErrTxnInactive = errors.New("tuplespace: transaction not active")
	// ErrLeaseExpired is returned by lease renewal/cancel on an entry
	// whose lease has already expired or been cancelled.
	ErrLeaseExpired = errors.New("tuplespace: lease expired")
	// ErrClosed is returned by operations on a closed space.
	ErrClosed = errors.New("tuplespace: space closed")
	// ErrOverloaded is the typed fast-fail for admission control: the
	// server's pending-op queue is full (or the brownout controller shed
	// the op), so the call was rejected before execution.
	// It is retryable — nothing executed — but callers must retry within
	// their budget, never through failover resolution.
	ErrOverloaded = errors.New("tuplespace: overloaded, call rejected before execution")
	// ErrDeadlineExpired is returned when an op arrives (or would start)
	// after the deadline its client propagated: the client has already
	// given up, so executing would be work into the void. Like
	// ErrOverloaded the op did not execute.
	ErrDeadlineExpired = errors.New("tuplespace: op deadline expired before execution")
)
