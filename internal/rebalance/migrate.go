package rebalance

import (
	"errors"
	"fmt"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// KeyedTo builds a migration predicate selecting the keyed entries that
// member owns under the post-reshard ring (owner is typically
// shard.OwnerFunc of the topology about to be published). Unkeyed entries
// never migrate on a split: they were placed round-robin, every zero-key
// lookup scatters, so they are findable wherever they sit.
func KeyedTo(owner func(key string) string, member string) func(tuplespace.Entry) bool {
	return func(e tuplespace.Entry) bool {
		key, ok, err := tuplespace.IndexKey(e)
		if err != nil || !ok {
			return false
		}
		return owner(key) == member
	}
}

// Everything is the merge predicate: the vacating shard hands over every
// entry, keyed or not.
func Everything(tuplespace.Entry) bool { return true }

// KeyedMemosTo is the memo-slice analogue of KeyedTo: it selects the
// exactly-once memos whose key the member owns under the post-reshard
// ring. Unkeyed memos ship too — their ops were placed round-robin, and
// an over-shipped memo is harmless while a missing one re-executes a
// retry (see Migration.MemoPred).
func KeyedMemosTo(owner func(key string) string, member string) func(key string, keyed bool) bool {
	return func(key string, keyed bool) bool {
		if !keyed {
			return true
		}
		return owner(key) == member
	}
}

// Migration moves the entries matching Pred from a source shard's space
// into a destination applier while the source keeps serving. One
// Migration drives one direction of one reshard; a source failover
// mid-migration is handled by aborting and running a fresh Migration
// against the promoted node (after Dst.Reset()).
type Migration struct {
	// Clock paces settle passes.
	Clock vclock.Clock
	// Src is the serving node's raw space; Tap must sit in that same
	// node's journal chain.
	Src *tuplespace.Space
	Tap *Tap
	// Dst applies into the destination shard through its own journal
	// chain, so migrated entries are durable/replicated at the destination
	// before the source copy is evicted, and invisible there until then.
	Dst *tuplespace.Applier
	// Pred selects the migrating entries (KeyedTo for a split,
	// Everything for a merge).
	Pred func(tuplespace.Entry) bool
	// MemoPred selects which exactly-once memo records (idempotency-token
	// outcomes, see tuplespace memo.go) ship and forward with the
	// migrating entries, by each memo's (key, keyed) pair — KeyedMemosTo
	// for a split, nil for "all of them" (a merge, or when the caller
	// cannot scope them). Over-shipping is safe: a duplicate memo on a
	// non-owning shard is never consulted and ages out of the bounded
	// table; under-shipping is not — a retried mutation that re-routes to
	// the destination without its memo would re-execute.
	MemoPred func(key string, keyed bool) bool
	// SettleEvery is the pause between settle passes (default 25ms).
	SettleEvery time.Duration
	// Counters, when set, receives reshard:entries_migrated and
	// reshard:entries_evicted.
	Counters *metrics.Counters
	// OnEvent, when set, receives phase-boundary notifications for the
	// cluster flight recorder: "fork" after the destination goes live,
	// "settle" after the cutover barrier clears, "drain" after the
	// lame-duck sweep. Called outside any space mutex.
	OnEvent func(kind, detail string)
}

func (m *Migration) event(kind, detail string) {
	if m.OnEvent != nil {
		m.OnEvent(kind, detail)
	}
}

func (m *Migration) settleEvery() time.Duration {
	if m.SettleEvery > 0 {
		return m.SettleEvery
	}
	return 25 * time.Millisecond
}

// Fork brings the destination online-converging: buffer the journal,
// snapshot the matching source state, replay it into the destination,
// then switch the tap live. From return onward every source mutation in
// the migrating range reaches the destination before the source op
// acknowledges. Returns how many entries the snapshot carried — its memo
// records, one per tokened write still remembered, are not entries.
func (m *Migration) Fork() (int, error) {
	m.Dst.SetFilter(m.Pred)
	m.Dst.SetMemoFilter(m.MemoPred)
	m.Tap.StartBuffer()
	entries, err := m.Src.EncodeStateWhere(m.Pred)
	if err != nil {
		m.Tap.Close()
		return 0, fmt.Errorf("rebalance: snapshot source: %w", err)
	}
	// Memo slice after the entry snapshot: a write memo binds to its entry
	// by sequence, so the entry must exist at the destination first. Live
	// memo records then ride the tap like any journal record.
	memos, err := m.Src.EncodeMemosWhere(m.MemoPred)
	if err != nil {
		m.Tap.Close()
		return 0, fmt.Errorf("rebalance: snapshot memos: %w", err)
	}
	for _, rec := range append(entries, memos...) {
		if err := m.Dst.Apply(rec); err != nil {
			m.Tap.Close()
			return 0, fmt.Errorf("rebalance: replay snapshot: %w", err)
		}
	}
	if err := m.Tap.GoLive(m.Dst.Apply); err != nil {
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
	recs, locked, err := m.Src.EvictWhere(m.Pred)
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
	if terr := m.Tap.Err(); terr != nil {
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
func (m *Migration) SettleUntilClear(maxWait time.Duration) (int, error) {
	deadline := m.Clock.Now().Add(maxWait)
	total := 0
	for {
		evicted, locked, err := m.SettlePass()
		total += evicted
		if err != nil {
			return total, err
		}
		if locked == 0 {
			m.event("settle", fmt.Sprintf("%d evicted", total))
			return total, nil
		}
		if m.Clock.Now().After(deadline) {
			return total, fmt.Errorf("%w (%d held after %v)", ErrSettleTimeout, locked, maxWait)
		}
		m.Clock.Sleep(m.settleEvery())
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
func (m *Migration) Drain(window time.Duration) (int, error) {
	defer m.Tap.Close()
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
		m.Clock.Sleep(m.settleEvery())
	}
}

// Abort tears the migration down without cutting over: the tap stops
// forwarding and the caller resets the destination applier. Safe at any
// phase; the source was never not-serving.
func (m *Migration) Abort() {
	m.Tap.Close()
	m.Dst.Reset()
	m.Dst.SetFilter(nil)
	m.Dst.SetMemoFilter(nil)
}
