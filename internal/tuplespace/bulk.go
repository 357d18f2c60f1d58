package tuplespace

import "gospaces/internal/txn"

// ReadAll returns copies of up to max public entries matching tmpl
// (max <= 0 means no limit), without blocking. Under a transaction the
// returned entries are read-locked. It is the JavaSpaces05 "contents"
// extension, useful for bulk aggregation and diagnostics.
func (s *Space) ReadAll(tmpl Entry, t *txn.Txn, max int) ([]Entry, error) {
	return s.bulk(opRead, tmpl, t, max)
}

// TakeAll removes and returns up to max matching entries (max <= 0 means
// no limit), without blocking. Under a transaction the removals are
// provisional until commit.
func (s *Space) TakeAll(tmpl Entry, t *txn.Txn, max int) ([]Entry, error) {
	return s.bulk(opTake, tmpl, t, max)
}

func (s *Space) bulk(kind opKind, tmpl Entry, t *txn.Txn, max int) ([]Entry, error) {
	var buf [inlineCmps]comparer
	ti, key, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, err := s.joinLocked(t); err != nil {
		return nil, err
	}
	var out []Entry
	for _, se := range s.pickLocked(kind, s.listLocked(ti, key), m, t, max) {
		s.applyLocked(kind, se, t)
		out = append(out, deepCopy(se.val).Interface())
	}
	return out, nil
}

// pickLocked returns, in list order, up to max (all when max <= 0) entries
// of r's list that m matches and a kind operation under t may act on.
func (s *Space) pickLocked(kind opKind, r listRef, m matcher, t *txn.Txn, max int) []*storedEntry {
	var picked []*storedEntry
	items, now := r.get().items, s.clock.Now()
	for i := s.nextLocked(kind, items, 0, m, t, now); i >= 0 && (max <= 0 || len(picked) < max); i = s.nextLocked(kind, items, i+1, m, t, now) {
		picked = append(picked, items[i])
	}
	return picked
}

// bulkTok is the token TakeAll: a two-phase bulk take whose memo record
// is journaled before any remove record, so a replication ship torn
// mid-op can only leave memo-plus-live-entries on the standby, never
// consumed entries with no memo (see the ordering contract in memo.go).
// Non-transactional and tokened by construction (TakeAllTok gates).
func (s *Space) bulkTok(tmpl Entry, max int, tok OpToken) ([]Entry, error) {
	var buf [inlineCmps]comparer
	ti, key, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if rec, ok := s.memoHitLocked(tok); ok && rec.op == MemoTakeAll {
		return copyEntries(rec.entries), nil
	}
	// Phase 1: pick the matching entries without consuming.
	picked := s.pickLocked(opTake, s.listLocked(ti, key), m, nil, max)
	if len(picked) == 0 {
		// Nothing consumed: re-execution is effect-free, so an empty
		// result is not memoized (a retry is semantically a fresh op).
		return nil, nil
	}
	out := make([]Entry, len(picked))
	for i, se := range picked {
		out[i] = deepCopy(se.val).Interface()
	}
	// Memoize under the template's key: the router routes the retry by
	// it, so the memo must migrate with that bucket.
	rec := &memoRec{op: MemoTakeAll, key: key, keyed: key != "", entries: copyEntries(out)}
	s.journalMemoLocked(tok, rec)
	// Phase 2: consume, journaling each removal behind the memo record.
	for _, se := range picked {
		if err := s.applyLocked(opTake, se, nil); err != nil {
			return nil, err
		}
	}
	s.memoInsertLocked(tok, rec)
	return out, nil
}
