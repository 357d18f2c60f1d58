package rebalance

import (
	"sync"

	"gospaces/internal/tuplespace"
)

// Tap is a tuplespace.RecordSink that sits permanently in a shard's
// journal chain and is switched on only while a migration runs. Off (the
// steady state) it is a pass-through to the downstream sink; buffering it
// additionally retains every record; live it additionally forwards every
// record to the migration's applier, synchronously, so that when the
// journal call returns the child has already converged through that
// record — the zero-loss barrier the cutover relies on.
//
// Append runs under the source space's mutex (like every journal sink),
// so the live forward briefly extends source-op latency by one child
// apply. That is the price of the barrier and lasts only for the
// migration window; the off path is two atomic-free mutex ops.
type Tap struct {
	mu   sync.Mutex
	down tuplespace.RecordSink // may be nil (no replication/WAL tee below)
	mode tapMode
	buf  [][]byte
	fwd  func(payload []byte) error
	err  error // first forward failure; migration aborts on it
}

type tapMode int

const (
	tapOff tapMode = iota
	tapBuffer
	tapLive
)

// NewTap returns an off tap forwarding to down (nil is fine).
func NewTap(down tuplespace.RecordSink) *Tap { return &Tap{down: down} }

// Append implements tuplespace.RecordSink. Downstream (replication,
// durability tee) always sees the record first; migration failures are
// retained for the migration to observe and never fail the source op.
// The buffer keeps a copy of the borrowed payload; a live forward applies
// it before Append returns.
func (t *Tap) Append(payload []byte) error {
	var downErr error
	if t.down != nil {
		downErr = t.down.Append(payload)
	}
	t.mu.Lock()
	switch t.mode {
	case tapBuffer:
		t.buf = append(t.buf, append([]byte(nil), payload...))
	case tapLive:
		if err := t.fwd(payload); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.mu.Unlock()
	return downErr
}

// Dropping reports that Append would discard a record now (see
// tuplespace.RecordSink): no migration is buffering or forwarding, and
// nothing downstream wants it either.
func (t *Tap) Dropping() bool {
	t.mu.Lock()
	off := t.mode == tapOff
	t.mu.Unlock()
	if !off || t.down == nil {
		return off
	}
	d, ok := t.down.(interface{ Dropping() bool })
	return ok && d.Dropping()
}

// StartBuffer begins retaining records. Call before snapshotting the
// source so the snapshot/buffer overlap covers every record (replay is
// deduplicated by entry id, so overlap is idempotent, while a gap would
// lose entries).
func (t *Tap) StartBuffer() {
	t.mu.Lock()
	t.mode = tapBuffer
	t.buf = nil
	t.err = nil
	t.mu.Unlock()
}

// GoLive drains the buffer through fwd and switches to live forwarding,
// atomically with respect to Append: records arriving during the drain
// wait on the tap mutex and then forward in order.
func (t *Tap) GoLive(fwd func(payload []byte) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.buf {
		if err := fwd(rec); err != nil {
			t.mode = tapOff
			t.buf = nil
			return err
		}
	}
	t.buf = nil
	t.fwd = fwd
	t.mode = tapLive
	return nil
}

// Err returns the first live-forward failure, if any.
func (t *Tap) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close switches the tap off and drops any buffered records. Idempotent;
// also the abort path.
func (t *Tap) Close() {
	t.mu.Lock()
	t.mode = tapOff
	t.buf = nil
	t.fwd = nil
	t.mu.Unlock()
}
