package tuplespace

import (
	"fmt"
	"sync"
	"time"
)

// Applier is the one code path that turns journal records into space
// state, record by record: a write record materializes immediately, a
// remove record cancels the entries it names, and a tokened record's memo
// lands in the same step as its mutation. It runs in three modes: a hot
// standby applies its primary's records as they are shipped (the backup
// half of the replication protocol), a migration applies a source shard's
// records through a filter (SetFilter), and recovery (ReplayRecords)
// applies a WAL snapshot and its tail through a fresh Applier once every
// record has decoded.
//
// Entry identity bridges the two spaces: the primary's records carry the
// primary's Seq numbers, the backup space assigns its own — the Applier
// keeps the mapping as the lease handle each write returned, so a later
// remove cancels exactly the entry its Seq named.
//
// Seq numbers are only meaningful within one source incarnation: a
// promoted standby assigns its own Seqs, disjoint in meaning (but not in
// value) from the dead primary's. Rebind moves the applier to a new
// incarnation so records from the new source can neither collide with an
// unrelated old Seq (a false dup would drop the entry) nor miss the dedup
// for an entry both incarnations carried (a miss would duplicate it).
type Applier struct {
	s *Space

	mu         sync.Mutex
	filter     func(Entry) bool
	memoFilter func(key string, keyed bool) bool
	leases     map[seqKey]*EntryLease // source Seq (incarnation-qualified) → local entry lease
	gen        int                    // current source incarnation
	xlat       map[uint64]seqKey      // current-incarnation Seq → key the entry was first tracked under

	// decodeMu serializes Apply's use of the one record it decodes into
	// and the client strings its tokens share.
	decodeMu sync.Mutex
	scratch  record
	clients  map[string]string
}

// seqKey qualifies a source Seq with the source incarnation that assigned
// it, so Seqs from successive incarnations of a failed-over source never
// alias.
type seqKey struct {
	gen int
	seq uint64
}

// NewApplier returns an applier feeding s. The space should be mutated
// only through the applier (and its own lease expiries) while replication
// is active; promotion detaches it by simply ceasing to Apply.
func NewApplier(s *Space) *Applier {
	return &Applier{s: s, leases: make(map[seqKey]*EntryLease), clients: make(map[string]string)}
}

// keyFor resolves an incoming Seq to its dedup key under the current
// incarnation: translated to the key the entry was first applied under
// when the translation table knows it, fresh otherwise. Caller holds a.mu.
func (a *Applier) keyFor(seq uint64) seqKey {
	if k, ok := a.xlat[seq]; ok {
		return k
	}
	return seqKey{gen: a.gen, seq: seq}
}

// Rebind switches the applier to a new source incarnation — a promoted
// standby now feeds it. xlat maps the new incarnation's Seqs to the
// previous incarnation's Seqs for the entries both carried (a promoted
// backup's own applier provides it via SeqMapping); Seqs outside the
// table are treated as genuinely new writes under a fresh namespace.
// Translations compose across chained failovers.
func (a *Applier) Rebind(xlat map[uint64]uint64) *Applier {
	a.mu.Lock()
	next := make(map[uint64]seqKey, len(xlat))
	for newSeq, prevSeq := range xlat {
		// prevSeq is in the namespace the applier currently reads, so the
		// current table resolves it to its canonical first-seen key.
		next[newSeq] = a.keyFor(prevSeq)
	}
	a.gen++
	a.xlat = next
	a.mu.Unlock()
	return a
}

// SeqMapping reports, for every tracked entry, the local space's Seq for
// it → the source Seq it was applied under. When this applier's space is
// promoted to source itself, the mapping lets a downstream applier that
// followed the old source translate the promoted node's Seqs back to the
// namespace it already deduplicates in (see Rebind).
func (a *Applier) SeqMapping() map[uint64]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint64]uint64, len(a.leases))
	for k, l := range a.leases {
		out[l.Seq()] = k.seq
	}
	return out
}

// SetFilter switches the applier into resharding-migration mode: only
// write records whose entry matches pred materialize, staged — journaled,
// but seen by no lookup while the source can still serve the original. A
// remove record cancels the copy (the source consumed the original); an
// evict reveals it (the source let it go because this side owns it now).
// Without a filter (the replication default) a write is visible at once
// and an evict applies as a remove: a backup mirrors its primary exactly.
// Returns a for chaining.
func (a *Applier) SetFilter(pred func(Entry) bool) *Applier {
	a.mu.Lock()
	a.filter = pred
	a.mu.Unlock()
	return a
}

// SetMemoFilter restricts which memos materialize — a memo record's, and
// the one a tokened write or remove record carries — by each memo's (key,
// keyed) pair: the migration analogue of SetFilter, a forked child only
// installs memos for the bucket range it is receiving. Without a filter
// (the replication default) every memo applies. Returns a for chaining.
func (a *Applier) SetMemoFilter(pred func(key string, keyed bool) bool) *Applier {
	a.mu.Lock()
	a.memoFilter = pred
	a.mu.Unlock()
	return a
}

// Apply applies one encoded journal record (the payload a RecordSink
// receives on the primary), whole: its mutation and its memo become
// visible together and leave as one record of this space's own journal.
func (a *Applier) Apply(payload []byte) error { return a.decodeApply(payload, false) }

// ApplyEvicted applies the write record of an entry its source already
// evicted (a settle pass's safety net): the copy is visible at once.
func (a *Applier) ApplyEvicted(payload []byte) error { return a.decodeApply(payload, true) }

// decodeApply decodes payload into the applier's own record, reusing its
// arrays and interning the token's client: a stream costs the allocations
// of what it stores, not of each record's frame.
func (a *Applier) decodeApply(payload []byte, evicted bool) error {
	a.decodeMu.Lock()
	defer a.decodeMu.Unlock()
	r := &a.scratch
	if err := r.decode(payload, a.clients); err != nil {
		return fmt.Errorf("tuplespace: apply record: %w", err)
	}
	if r.kind != recWrite && len(r.entries) > 0 {
		// A take memo keeps the entries it answers with; the scratch
		// array is the next record's.
		own := *r
		own.entries = append([]Entry(nil), r.entries...)
		return a.apply(&own, evicted)
	}
	return a.apply(r, evicted)
}

// apply applies one decoded record; it may clear r's token (SetMemoFilter).
func (a *Applier) apply(r *record, evicted bool) error {
	a.mu.Lock()
	filter, memoFilter := a.filter, a.memoFilter
	a.mu.Unlock()
	op, memoKey, returned := r.memo()
	if memoFilter != nil && !memoFilter(memoKey, memoKey != "") {
		r.tok = OpToken{}
	}
	switch r.kind {
	case recWrite:
		a.mu.Lock()
		key := a.keyFor(r.seqs[0])
		l, dup := a.leases[key]
		a.mu.Unlock()
		// A record can arrive twice when a snapshot push and the
		// incremental stream overlap; the Seq mapping makes the write
		// idempotent.
		if dup {
			if evicted {
				a.s.reveal([]*storedEntry{l.entry})
			}
			return nil
		}
		ttl, expired := Forever, false
		if !r.expiry.IsZero() {
			ttl = r.expiry.Sub(a.s.clock.Now())
			expired = ttl <= 0
		}
		if expired || filter != nil && !filter(r.entries[0]) {
			// Expired in transit, or not this side's to hold. The write
			// happened all the same: its memo answers with a lease on
			// nothing.
			if !r.tok.Zero() {
				a.s.installMemo(r.tok, &memoRec{op: op, key: memoKey})
			}
			return nil
		}
		mode := writeMirror
		if filter != nil && !evicted {
			mode = writeStaged
		}
		l, err := a.s.write(r.entries[0], nil, ttl, r.tok, mode)
		if err != nil {
			return fmt.Errorf("tuplespace: apply write %d: %w", r.seqs[0], err)
		}
		a.mu.Lock()
		a.leases[key] = l
		a.mu.Unlock()
	case recRemove, recEvict:
		reveal := r.kind == recEvict && filter != nil // see SetFilter
		// An unknown Seq means the entry expired locally first, or the
		// remove duplicates one already applied. Both leave the spaces
		// converged, so this is not an error.
		var one [1]*storedEntry // a take's, which names one entry
		ses := one[:0]
		a.mu.Lock()
		for _, seq := range r.seqs {
			key := a.keyFor(seq)
			if l := a.leases[key]; l != nil {
				ses = append(ses, l.entry)
				if !reveal {
					delete(a.leases, key)
				}
			}
		}
		a.mu.Unlock()
		if reveal {
			a.s.reveal(ses)
		} else if err := a.s.applyRemove(ses, r.tok, op, memoKey, returned); err != nil {
			return fmt.Errorf("tuplespace: apply remove %v: %w", r.seqs, err)
		}
	case recMemo:
		if r.tok.Zero() {
			return nil // filtered
		}
		rec := &memoRec{op: op, key: memoKey, entries: returned}
		if op == MemoWrite && len(r.seqs) == 1 {
			// The write record precedes its memo in a snapshot, so the
			// lease is already tracked; nil (consumed or filtered away)
			// resolves to a detached expired lease on retry.
			a.mu.Lock()
			rec.lease = a.leases[a.keyFor(r.seqs[0])]
			a.mu.Unlock()
		}
		a.s.installMemo(r.tok, rec)
	}
	return nil
}

// applyRemove is the space's half of applying a remove record: those of ses
// still here go, and the record's memo arrives, under one hold of the mutex.
func (s *Space) applyRemove(ses []*storedEntry, tok OpToken, op, key string, returned []Entry) error {
	s.lock()
	defer s.unlock()
	here := ses[:0]
	for _, se := range ses {
		if !se.removed {
			here = append(here, se)
		}
	}
	return s.consumeLocked(here, tok, op, key, returned)
}

// Reset empties the replicated state: every tracked entry is cancelled
// and the Seq mapping (translation table included) cleared. It precedes a
// full re-sync (snapshot push) after the incremental stream diverged.
func (a *Applier) Reset() {
	a.mu.Lock()
	leases := a.leases
	a.leases = make(map[seqKey]*EntryLease)
	a.xlat = nil
	a.mu.Unlock()
	for _, l := range leases {
		_ = l.Cancel() // already-expired entries are fine
	}
}

// Len reports how many replicated entries are currently tracked.
func (a *Applier) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.leases)
}

// expireTracked drops mappings whose backup-side lease has expired so the
// map does not grow with long-lived churn. Called opportunistically.
func (a *Applier) expireTracked(now time.Time) {
	a.mu.Lock()
	for seq, l := range a.leases {
		exp := l.Expiration()
		if !exp.IsZero() && now.After(exp) {
			delete(a.leases, seq)
		}
	}
	a.mu.Unlock()
}

// Prune removes mappings for entries that have already expired on the
// backup's clock.
func (a *Applier) Prune() { a.expireTracked(a.s.clock.Now()) }
