package tuplespace

import (
	"reflect"

	"gospaces/internal/txn"
)

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
	ti, tv, err := infoFor(tmpl)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, err := s.joinLocked(t); err != nil {
		return nil, err
	}
	var out []Entry
	now := s.clock.Now()
	list := s.byType[ti.name]
	kept := list[:0]
	s.dead[ti.name] = 0 // this pass drops them; the takes below count afresh
	for _, se := range list {
		if se.removed || (!se.expiry.IsZero() && now.After(se.expiry)) {
			if !se.removed {
				se.removed = true
				s.stats.Expired++
			}
			continue
		}
		kept = append(kept, se)
		if max > 0 && len(out) >= max {
			continue
		}
		if !s.visibleLocked(se, t) {
			continue
		}
		if kind == opTake && !s.takeableLocked(se, t) {
			continue
		}
		if !matchesEntry(ti, tv, se.val) {
			continue
		}
		s.applyLocked(kind, se, t)
		out = append(out, deepCopy(se.val).Interface())
	}
	s.byType[ti.name] = kept
	return out, nil
}

// matchesEntry is a tiny wrapper so bulk reads the same matcher the
// scalar paths use.
func matchesEntry(ti *typeInfo, tv, cv reflect.Value) bool { return matches(ti, tv, cv) }

// bulkTok is the token TakeAll: a two-phase bulk take whose memo record
// is journaled before any remove record, so a replication ship torn
// mid-op can only leave memo-plus-live-entries on the standby, never
// consumed entries with no memo (see the ordering contract in memo.go).
// Non-transactional and tokened by construction (TakeAllTok gates).
func (s *Space) bulkTok(tmpl Entry, max int, tok OpToken) ([]Entry, error) {
	ti, tv, err := infoFor(tmpl)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if rec, ok := s.memoHitLocked(tok); ok && rec.op == MemoTakeAll {
		return copyEntries(rec.entries), nil
	}
	// Phase 1: pick the matching entries without consuming, compacting
	// dead ones as the plain bulk scan does.
	var picked []*storedEntry
	var out []Entry
	now := s.clock.Now()
	list := s.byType[ti.name]
	kept := list[:0]
	s.dead[ti.name] = 0 // this pass drops them; the takes below count afresh
	for _, se := range list {
		if se.removed || (!se.expiry.IsZero() && now.After(se.expiry)) {
			if !se.removed {
				se.removed = true
				s.stats.Expired++
			}
			continue
		}
		kept = append(kept, se)
		if max > 0 && len(picked) >= max {
			continue
		}
		if !s.visibleLocked(se, nil) || !s.takeableLocked(se, nil) {
			continue
		}
		if !matchesEntry(ti, tv, se.val) {
			continue
		}
		picked = append(picked, se)
		out = append(out, deepCopy(se.val).Interface())
	}
	s.byType[ti.name] = kept
	if len(picked) == 0 {
		// Nothing consumed: re-execution is effect-free, so an empty
		// result is not memoized (a retry is semantically a fresh op).
		return nil, nil
	}
	// Memoize under the template's key: the router routes the retry by
	// it, so the memo must migrate with that bucket.
	key, keyed := "", false
	if ti.keyField >= 0 {
		key = tv.Field(ti.keyField).String()
		keyed = key != ""
	}
	rec := &memoRec{op: MemoTakeAll, key: key, keyed: keyed, entries: copyEntries(out)}
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
