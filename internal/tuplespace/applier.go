package tuplespace

import (
	"fmt"
	"maps"
	"sync"

	"gospaces/internal/enc"
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
// A standby and a recovery mirror their source: each entry is stored under
// the id its record carries, so it is the same entry under the same id on
// every copy. A migration destination holds entries of its own, so a copy
// gets an id of its own, and the applier maps source id → copy for as long
// as the migration's applier lives (see Fence and Reset).
type Applier struct {
	s *Space

	mu         sync.Mutex
	filter     func(Entry) bool
	memoFilter func(key string, keyed bool) bool
	copies     map[uint64]*storedEntry // under a filter: source id → this space's copy

	// decodeMu serializes Apply's use of the one record it decodes into
	// and the stream's decoder, whose string table its records share.
	decodeMu sync.Mutex
	scratch  record
	dec      *enc.Decoder
}

// NewApplier returns an applier feeding s. The space should be mutated
// only through the applier (and its own lease expiries) while replication
// is active; promotion detaches it by simply ceasing to Apply.
func NewApplier(s *Space) *Applier {
	return &Applier{s: s, copies: make(map[uint64]*storedEntry), dec: enc.NewDecoder()}
}

// Fence re-arms a migration against a new incarnation of its source (a
// promoted standby, a restarted store) that mirrored the ids below from and
// mints from there up: copies of the ids below still dedup, and the ids
// from up are forgotten, since the new incarnation mints them anew.
func (a *Applier) Fence(from uint64) {
	a.mu.Lock()
	maps.DeleteFunc(a.copies, func(id uint64, _ *storedEntry) bool { return id >= from })
	a.mu.Unlock()
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
// arrays, with the applier's own decoder, whose string table gives the
// token's client, the memo key and the entries' strings: a stream costs
// the allocations of what it stores, not of each record's frame. A
// non-write record's entries are left undecoded until its memo needs them
// (see answerRecord), and nothing of payload is kept past the call.
func (a *Applier) decodeApply(payload []byte, evicted bool) error {
	a.decodeMu.Lock()
	defer a.decodeMu.Unlock()
	r := &a.scratch
	if err := r.decode(payload, a.dec); err != nil {
		return fmt.Errorf("tuplespace: apply record: %w", err)
	}
	defer clear(r.msgs)
	return a.apply(r, evicted)
}

// apply applies one decoded record; it may clear r's token (SetMemoFilter).
func (a *Applier) apply(r *record, evicted bool) error {
	a.mu.Lock()
	filter, memoFilter := a.filter, a.memoFilter
	a.mu.Unlock()
	memo := r.memo()
	if memoFilter != nil && !memoFilter(memo.key, memo.key != "") {
		r.tok = OpToken{}
	}
	switch r.kind {
	case recWrite:
		id := r.seqs[0]
		// A record can arrive twice when a snapshot push and the
		// incremental stream overlap; the id makes the write idempotent.
		if se := a.entry(id, filter != nil); se != nil {
			if evicted {
				a.s.reveal([]*storedEntry{se})
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
				a.s.installMemo(r.tok, memo)
			}
			return nil
		}
		mode, under := writeMirror, id
		if filter != nil {
			under = 0 // a copy gets an id of this space's own
			if !evicted {
				mode = writeStaged
			}
		}
		l, err := a.s.write(r.entries[0], nil, ttl, r.tok, mode, under)
		if err != nil {
			return fmt.Errorf("tuplespace: apply write %d: %w", id, err)
		}
		if filter != nil {
			a.mu.Lock()
			a.copies[id] = l.entry
			a.mu.Unlock()
		}
	case recRemove, recEvict:
		reveal := r.kind == recEvict && filter != nil // see SetFilter
		// An id nothing here stands for means the entry expired locally
		// first, or the remove duplicates one already applied. Both leave
		// the spaces converged, so this is not an error.
		var one [1]*storedEntry // a take's, which names one entry
		ses := one[:0]
		for _, id := range r.seqs {
			if se := a.entry(id, filter != nil); se != nil {
				ses = append(ses, se)
			}
		}
		if !r.tok.Zero() {
			if err := memo.answerRecord(r, ses, a.dec); err != nil {
				return fmt.Errorf("tuplespace: apply record: %w", err)
			}
		}
		if filter != nil && !reveal {
			a.forget(r.seqs) // the source consumed them: so are the copies
		}
		if reveal {
			a.s.reveal(ses)
		} else if err := a.s.applyRemove(ses, r.tok, memo); err != nil {
			return fmt.Errorf("tuplespace: apply remove %v: %w", r.seqs, err)
		}
	case recMemo:
		if r.tok.Zero() {
			return nil // filtered
		}
		if err := memo.answerRecord(r, nil, a.dec); err != nil {
			return fmt.Errorf("tuplespace: apply record: %w", err)
		}
		if memo.op == MemoWrite && len(r.seqs) == 1 {
			// The write record precedes its memo in a snapshot, so the
			// entry is already here; none (consumed or filtered away)
			// resolves to a detached expired lease on retry.
			if se := a.entry(r.seqs[0], filter != nil); se != nil {
				memo.entry = se
			}
		}
		a.s.installMemo(r.tok, memo)
	}
	return nil
}

// answerRecord sets what rec, the memo of tokened record r, answers with.
// A record decoded whole (recovery) carries it. A remove whose every named
// entry is still here (ses, as found for r.seqs) answers with those stored
// values, the copy this side already holds, as its primary's memo answers
// with the values it removed: a take's inline, like the primary's.
// Otherwise — the entry expired here first, the record duplicates one
// already applied, a migration never copied it, or a memo record — the
// record's own entries are decoded and checked, with stream, the decoder r
// was read with.
func (rec *memoRec) answerRecord(r *record, ses []*storedEntry, stream *enc.Decoder) error {
	switch {
	case len(r.msgs) == 0:
		rec.answer(r.entries)
	case len(ses) == len(r.msgs) && len(ses) == len(r.seqs):
		if rec.op != MemoTakeAll && len(ses) == 1 {
			rec.taken = ses[0].entry() // never written again, like the primary's
			return nil
		}
		all := make([]Entry, len(ses))
		for i, se := range ses {
			all[i] = se.entry()
		}
		rec.all = all
	default:
		es, err := r.decodeMsgs(stream)
		if err != nil {
			return err
		}
		rec.answer(es)
	}
	return nil
}

// forget drops a migration's copies of source ids the source consumed.
func (a *Applier) forget(ids []uint64) {
	a.mu.Lock()
	for _, id := range ids {
		delete(a.copies, id)
	}
	a.mu.Unlock()
}

// entry returns what stands here for source entry id, or nil: a migration's
// copy, or the entry mirrored under id.
func (a *Applier) entry(id uint64, filtered bool) *storedEntry {
	if filtered {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.copies[id]
	}
	s := a.s
	s.lock()
	defer s.unlock()
	return s.bySeq[id]
}

// applyRemove is the space's half of applying a remove record: those of ses
// still here go, and the record's memo arrives, under one hold of the mutex.
func (s *Space) applyRemove(ses []*storedEntry, tok OpToken, memo memoRec) error {
	s.lock()
	defer s.unlock()
	here := ses[:0]
	for _, se := range ses {
		if !se.removed {
			here = append(here, se)
		}
	}
	return s.consumeLocked(here, tok, memo)
}

// Reset empties the replicated state before a full re-sync (snapshot
// push) or after an aborted migration: a mirror cancels every entry of its
// space, a migration destination the copies it made.
func (a *Applier) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.s
	s.lock()
	defer s.unlock()
	ses := a.copies
	if a.filter == nil {
		ses = s.bySeq
	}
	for _, se := range ses {
		if !se.removed {
			_ = s.consumeLocked([]*storedEntry{se}, OpToken{}, memoRec{})
		}
	}
	clear(a.copies)
}
