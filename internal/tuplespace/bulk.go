package tuplespace

// ReadAll returns copies of up to max public entries matching tmpl
// (max <= 0 means no limit), without blocking. Under a transaction the
// returned entries are read-locked. It is the JavaSpaces05 "contents"
// extension, useful for bulk aggregation and diagnostics.
func (s *Space) ReadAll(tmpl Entry, t *Txn, max int) ([]Entry, error) {
	return s.bulk(opRead, tmpl, t, max, OpToken{})
}

// TakeAll removes and returns up to max matching entries (max <= 0 means
// no limit), without blocking. Under a transaction the removals are
// provisional until commit.
func (s *Space) TakeAll(tmpl Entry, t *Txn, max int) ([]Entry, error) {
	return s.bulk(opTake, tmpl, t, max, OpToken{})
}

// bulk is every ReadAll and TakeAll. A tokened take is answered with the
// same entries on redelivery: under a transaction from the transaction's
// answers, outside one from the memo — there it consumes what it picked as
// one record carrying tok and the result set.
func (s *Space) bulk(kind opKind, tmpl Entry, t *Txn, max int, tok OpToken) ([]Entry, error) {
	var buf [inlineCmps]comparer
	ti, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return nil, err
	}
	if kind != opTake {
		tok = OpToken{}
	}
	s.lock()
	defer s.unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ts, err := s.joinLocked(t)
	if err != nil {
		return nil, err
	}
	if ses, ok := s.txnHitLocked(ts, tok, MemoTakeAll); ok {
		return copyStored(ses), nil
	}
	if rec, ok := s.memoHitLocked(tok); ok && rec.op == MemoTakeAll {
		return copyEntries(rec.all), nil
	}
	picked := s.pickLocked(kind, s.listLocked(ti, m), m, t, max)
	if len(picked) == 0 {
		// Nothing consumed: re-execution is effect-free, so an empty
		// result is not memoized (a retry is semantically a fresh op).
		return nil, nil
	}
	out := copyStored(picked)
	if kind == opRead || t != nil {
		for _, se := range picked {
			s.applyLocked(kind, se, t, OpToken{}) // cannot fail: nothing of it is journaled
		}
		if t != nil {
			ts.answered[tok] = picked
		}
		return out, nil
	}
	// Memoized under the template's key: the router routes the retry by
	// it, so the memo must migrate with that bucket.
	rec := memoRec{op: MemoTakeAll, key: m.key(ti)}
	if !tok.Zero() {
		rec.all = make([]Entry, len(picked))
		for i, se := range picked {
			rec.all[i] = se.entry() // the memo keeps the taken values themselves
		}
	}
	if err := s.consumeLocked(picked, tok, rec); err != nil {
		return nil, err
	}
	s.stats.Takes += uint64(len(picked))
	return out, nil
}

// copyStored deep-copies the values of ses for a caller.
func copyStored(ses []*storedEntry) []Entry {
	out := make([]Entry, len(ses))
	for i, se := range ses {
		out[i] = copyOut(se.value())
	}
	return out
}

// pickLocked returns, in list order, up to max (all when max <= 0) entries
// of r's list that m matches and a kind operation under t may act on.
func (s *Space) pickLocked(kind opKind, r listRef, m matcher, t *Txn, max int) []*storedEntry {
	var picked []*storedEntry
	items, now := r.get().items, s.clock.Now()
	for i := s.nextLocked(kind, items, 0, m, t, now); i >= 0 && (max <= 0 || len(picked) < max); i = s.nextLocked(kind, items, i+1, m, t, now) {
		picked = append(picked, items[i])
	}
	return picked
}
