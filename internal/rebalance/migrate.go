package rebalance

import (
	"errors"
	"fmt"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

const (
	attempts    = 3                     // forks, or re-arms after a source failure, per migration
	settleEvery = 25 * time.Millisecond // pause between settle passes
)

// Moving returns a reshard's entry and memo predicates: what ring member
// from hands over under owner, the ring about to be published (typically
// shard.OwnerFunc), which from leaves iff leaving. A keyed entry moves iff
// owner gives its key to another member: on a split only the child gains
// labels, on a merge every key goes. An unkeyed entry was placed
// round-robin and every zero-key lookup scatters, so it moves only off a
// member that leaves. Unkeyed memos always ship (see Migration.MemoPred).
func Moving(owner func(key string) string, from string, leaving bool) (func(tuplespace.Entry) bool, func(key string, keyed bool) bool) {
	pred := func(e tuplespace.Entry) bool {
		key, ok, err := tuplespace.IndexKey(e)
		if err != nil || !ok {
			return leaving
		}
		return owner(key) != from
	}
	memoPred := func(key string, keyed bool) bool {
		return !keyed || owner(key) != from
	}
	return pred, memoPred
}

// Migration moves the entries matching Pred from a source shard's space
// into a destination applier while the source keeps serving. One
// Migration drives one direction of one reshard, across failovers of its
// source: Fork forks again against whichever node Source names after a
// failed attempt, and Drain re-arms there after a failed settle or sweep.
type Migration struct {
	// Clock paces settle passes and retries.
	Clock vclock.Clock
	// Source resolves the node serving the source position now: its raw
	// space and the migration tap in that same node's journal chain.
	Source func() (*tuplespace.Space, *Tap)
	// Dst applies into the destination shard through its own journal
	// chain, so migrated entries are durable/replicated at the destination
	// before the source copy is evicted, and invisible there until then.
	Dst *tuplespace.Applier
	// Pred selects the migrating entries (see Moving).
	Pred func(tuplespace.Entry) bool
	// MemoPred selects which exactly-once memo records (idempotency-token
	// outcomes, see tuplespace memo.go) ship and forward with the
	// migrating entries, by each memo's (key, keyed) pair (see Moving);
	// nil ships all of them. Over-shipping is safe: a duplicate memo on a
	// non-owning shard is never consulted and ages out of the bounded
	// table; under-shipping is not — a retried mutation that re-routes to
	// the destination without its memo would re-execute.
	MemoPred func(key string, keyed bool) bool
	// Retry is the pause before each fork retry and each re-arm: long
	// enough for a failed source's standby to promote.
	Retry time.Duration
	// Counters, when set, receives reshard:entries_migrated,
	// reshard:entries_evicted and reshard:aborted.
	Counters *metrics.Counters
	// OnEvent, when set, receives phase-boundary notifications for the
	// cluster flight recorder: "fork" after the destination goes live,
	// "settle" after the cutover barrier clears, "drain" after the
	// lame-duck sweep. Called outside any space mutex.
	OnEvent func(kind, detail string)

	src    *tuplespace.Space // the node the migration reads now
	tap    *Tap
	broken bool // a settle failed and closed the tap: Drain re-arms first
}

func (m *Migration) event(kind, detail string) {
	if m.OnEvent != nil {
		m.OnEvent(kind, detail)
	}
}

// Fork brings the destination online-converging: buffer the journal,
// snapshot the matching source state, replay it into the destination,
// then switch the tap live. From return onward every source mutation in
// the migrating range reaches the destination before the source op
// acknowledges. Nothing is evicted yet, so a failed attempt rolls back
// wholesale (Abort) and, after Retry, forks again against whichever node
// Source then names. Returns how many entries the snapshot carried — its
// memo records, one per tokened write still remembered, are not entries —
// and how many attempts were abandoned.
func (m *Migration) Fork() (n, retries int, err error) {
	for {
		m.src, m.tap = m.Source()
		if n, err = m.fork(); err == nil {
			return n, retries, nil
		}
		m.Abort()
		if m.Counters != nil {
			m.Counters.Inc(metrics.CounterReshardAborted)
		}
		if retries+1 >= attempts {
			return 0, retries, err
		}
		retries++
		m.Clock.Sleep(m.Retry)
	}
}

func (m *Migration) fork() (int, error) {
	m.Dst.SetFilter(m.Pred)
	m.Dst.SetMemoFilter(m.MemoPred)
	m.tap.StartBuffer()
	entries, err := m.src.EncodeStateWhere(m.Pred)
	if err != nil {
		return 0, fmt.Errorf("rebalance: snapshot source: %w", err)
	}
	// Memo slice after the entry snapshot: a write memo binds to its entry
	// by sequence, so the entry must exist at the destination first. Live
	// memo records then ride the tap like any journal record.
	memos, err := m.src.EncodeMemosWhere(m.MemoPred)
	if err != nil {
		return 0, fmt.Errorf("rebalance: snapshot memos: %w", err)
	}
	for _, rec := range append(entries, memos...) {
		if err := m.Dst.Apply(rec); err != nil {
			return 0, fmt.Errorf("rebalance: replay snapshot: %w", err)
		}
	}
	if err := m.tap.GoLive(m.Dst.Apply); err != nil {
		return 0, fmt.Errorf("rebalance: drain tap buffer: %w", err)
	}
	if m.Counters != nil {
		m.Counters.AddN(metrics.CounterReshardMigrated, uint64(len(entries)))
	}
	m.event("fork", fmt.Sprintf("%d entries and %d memos snapshotted", len(entries), len(memos)))
	return len(entries), nil
}

// SettlePass evicts every currently unlocked matching entry from the
// source — each eviction, forwarded by the live tap, reveals the
// destination's copy — and re-applies the returned write-records as
// evicted: a no-op when the tap already did (id dedup), the safety net
// when it had not (a record that reached the source through a path the
// live tap postdates). Returns how many entries were evicted and how many
// remain lock-held by in-flight transactions or reads.
func (m *Migration) SettlePass() (evicted, locked int, err error) {
	recs, locked, err := m.src.EvictWhere(m.Pred)
	for _, rec := range recs {
		if aerr := m.Dst.ApplyEvicted(rec); aerr != nil && err == nil {
			err = fmt.Errorf("rebalance: re-apply evicted record: %w", aerr)
		}
	}
	if m.Counters != nil {
		m.Counters.AddN(metrics.CounterReshardEvicted, uint64(len(recs)))
	}
	if err != nil {
		return len(recs), locked, err
	}
	if terr := m.tap.Err(); terr != nil {
		return len(recs), locked, fmt.Errorf("rebalance: tap forward: %w", terr)
	}
	return len(recs), locked, nil
}

// ErrSettleTimeout reports that matching entries stayed lock-held for the
// whole settle budget — some transaction is sitting on the migrating
// range longer than the reshard is willing to wait.
var ErrSettleTimeout = errors.New("rebalance: settle timed out on locked entries")

// SettleUntilClear runs settle passes until one finds no lock-held
// matching entry — the cutover barrier: after it returns nil the source
// holds no visible or in-flight-held entry in the migrating range that
// the destination lacks. New matching writes may still arrive (routers
// have not cut over yet); Drain sweeps those. Gives up after maxWait.
// The first eviction is the commit point, so a failure closes the tap but
// leaves the migration standing: Drain re-arms and finishes the eviction.
func (m *Migration) SettleUntilClear(maxWait time.Duration) (int, error) {
	deadline := m.Clock.Now().Add(maxWait)
	total := 0
	for {
		evicted, locked, err := m.SettlePass()
		total += evicted
		if err == nil && locked > 0 && m.Clock.Now().After(deadline) {
			err = fmt.Errorf("%w (%d held after %v)", ErrSettleTimeout, locked, maxWait)
		}
		if err != nil {
			m.tap.Close()
			m.broken = true
			return total, err
		}
		if locked == 0 {
			m.event("settle", fmt.Sprintf("%d evicted", total))
			return total, nil
		}
		m.Clock.Sleep(settleEvery)
	}
}

// Drain is the lame-duck sweep after cutover: settle passes until one
// evicts nothing and finds nothing locked (all routers have converged
// and the stragglers are across), or until window elapses — whichever
// comes first. The window bound makes Drain terminate even if some
// client never converges; anything it leaves behind is unkeyed-invisible
// to the new ring only until the next pass of whoever still writes
// there, which the window is sized to outlast (the worker watch
// interval). Closes the tap on return.
// A failed sweep or settle means the source failed over mid-reshard:
// Drain waits Retry for the promotion (not after a failed settle), re-arms
// on the node Source names and sweeps again. No new snapshot is needed;
// the passes evict and re-apply whatever that node holds in the range.
func (m *Migration) Drain(window time.Duration) (total int, err error) {
	healthy := !m.broken
	if healthy {
		if total, err = m.drain(window); err == nil {
			return total, nil
		}
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 || healthy {
			m.Clock.Sleep(m.Retry)
		}
		if err = m.rearm(); err != nil {
			continue
		}
		n, derr := m.drain(window)
		total += n
		if err = derr; err == nil {
			return total, nil
		}
	}
	return total, err
}

// rearm switches a fresh live tap on at the node serving the source now.
// A promoted or restarted node holds what it mirrored under the dead
// source's ids and mints above them, so Dst is fenced there first: an
// entry both incarnations carried still dedups (no duplicate), and an id
// the dead source minted but never shipped or logged is not mistaken for
// a new write's (no loss).
func (m *Migration) rearm() error {
	src, tap := m.Source()
	if src != m.src {
		m.Dst.Fence(src.Mirrored() + 1)
		m.src = src
	}
	m.tap = tap
	tap.StartBuffer()
	if err := tap.GoLive(m.Dst.Apply); err != nil {
		tap.Close()
		return err
	}
	return nil
}

func (m *Migration) drain(window time.Duration) (int, error) {
	defer m.tap.Close()
	deadline := m.Clock.Now().Add(window)
	total := 0
	for {
		evicted, locked, err := m.SettlePass()
		total += evicted
		if err != nil {
			return total, err
		}
		// Past the window, exit as soon as nothing is lock-held: a held
		// entry must be outwaited (its txn commits — removed, journaled —
		// or aborts and the next pass evicts it); abandoning it would
		// strand it on the old owner where the new ring never looks.
		if locked == 0 && !m.Clock.Now().Before(deadline) {
			m.event("drain", fmt.Sprintf("%d evicted", total))
			return total, nil
		}
		m.Clock.Sleep(settleEvery)
	}
}

// Abort tears the migration down without cutting over: the tap stops
// forwarding and the destination applier resets. Safe at any phase; the
// source was never not-serving.
func (m *Migration) Abort() {
	m.tap.Close()
	m.Dst.Reset()
	m.Dst.SetFilter(nil)
	m.Dst.SetMemoFilter(nil)
}
