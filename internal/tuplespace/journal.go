package tuplespace

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gospaces/internal/metrics"
)

// The paper (§3) notes that JavaSpaces "provides associative lookup of
// persistent objects": Outrigger could run in persistent mode, surviving
// restarts. Journal gives the space the same property: every publicly
// visible mutation (a committed write, a committed take, a cancellation
// or eviction) is appended as one self-contained record (record.go), and
// ReplayRecords reconstructs the live entries into a fresh space through
// the same Applier a standby uses.
// Transactions interact correctly: only committed effects reach the
// journal.
//
// Records flow into a RecordSink; the durable space service plugs in
// internal/wal for segmented, checksummed, snapshot-compacted storage.

// CounterJournalErrors is the metrics key under which failed journal
// appends are counted. The string is owned by the canonical name set in
// internal/metrics/names.go — this used to be the ad-hoc
// "journal_errors", the one key that broke the "<subsystem>:<metric>"
// convention.
const CounterJournalErrors = metrics.CounterJournalErrors

// RecordSink is the destination for journal records. internal/wal's Log
// satisfies it.
//
// The payload is borrowed for the call: the journal encodes every record
// into one reused buffer, so a sink that keeps a record past Append — a
// replication queue, a migration's buffer — keeps a copy. One that only
// writes it out or decodes it on the spot copies nothing.
//
// A sink that at times has nowhere to put a record — a switch with no
// target yet, a tap that is off over nothing — may also implement
// Dropping() bool; while it reports true the journal does not encode the
// records Append would discard.
type RecordSink interface {
	// Append stores one record durably (per the sink's own policy) and
	// returns any storage error. The payload is the caller's again once
	// Append returns.
	Append(payload []byte) error
}

// Journal persists a space's public mutations to a RecordSink. Attach it
// with Space.AttachJournal; it is safe for concurrent use.
//
// A failed append is counted (see CounterJournalErrors) and returned to the
// space caller, and the mutation does not take effect: nothing is
// acknowledged that was not logged. Of the sinks production attaches, only
// the WAL can refuse a record: a replication queue, a switch and a
// migration tap accept every one.
type Journal struct {
	sink RecordSink
	idle interface{ Dropping() bool } // sink, when it can tell; else nil

	mu       sync.Mutex
	counters *metrics.Counters
}

// NewJournalSink returns a journal appending records to sink. Entry types
// that pass through the journal must be registered with enc.RegisterType
// (transport.RegisterType is the same registry).
func NewJournalSink(sink RecordSink) *Journal {
	j := &Journal{sink: sink}
	j.idle, _ = sink.(interface{ Dropping() bool })
	return j
}

// SetCounters directs journal error counts (CounterJournalErrors) to c.
// Returns j for chaining.
func (j *Journal) SetCounters(c *metrics.Counters) *Journal {
	j.mu.Lock()
	j.counters = c
	j.mu.Unlock()
	return j
}

// record appends r, returning the error of an append that failed.
func (j *Journal) record(r *record) error {
	if j.idle != nil && j.idle.Dropping() {
		return nil
	}
	c := recordCodecs.Get().(*recordCodec)
	payload, err := c.encode(r)
	if err == nil {
		err = j.sink.Append(payload)
	}
	recordCodecs.Put(c)
	if err == nil {
		return nil
	}
	j.mu.Lock()
	counters := j.counters
	j.mu.Unlock()
	if counters != nil {
		counters.Inc(CounterJournalErrors)
	}
	return fmt.Errorf("tuplespace: journal: %w", err)
}

// AttachJournal starts journaling the space's public mutations. It must
// be called before any entries are written; attaching to a non-empty
// space returns an error (replay first, then attach).
func (s *Space) AttachJournal(j *Journal) error {
	s.lock()
	defer s.unlock()
	if len(s.bySeq) > 0 {
		return errors.New("tuplespace: cannot attach journal to a non-empty space")
	}
	s.journal = j
	return nil
}

// AttachRecoveredJournal attaches j to a space whose current contents
// were just replayed from that journal's storage — the recovery path,
// where the space is deliberately non-empty. The recovered entries keep
// their logged ids, so new records continue the old log's numbering.
func (s *Space) AttachRecoveredJournal(j *Journal) {
	s.lock()
	s.journal = j
	s.unlock()
}

// journalLocked appends r to the space's journal, if it has one. Caller
// holds s.mu. A non-nil return means r was not logged, and what it
// describes must not happen.
func (s *Space) journalLocked(r *record) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.record(r)
}

// journalWriteLocked records a newly public entry, with the token of the
// write that made it when that write carried one.
func (s *Space) journalWriteLocked(se *storedEntry, tok OpToken) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.record(&record{
		kind: recWrite, seqs: []uint64{se.id}, expiry: expiryTime(se.expiry), tok: tok,
		entries: []Entry{se.entry()},
	})
}

// consumeLocked is how entries leave the space for good outside a
// transaction — a take, a take-all, a lease cancel, a standby applying its
// primary's remove: one record naming every entry of ses, carrying tok and
// what the op returned when it was tokened (rec), then the removals and the
// memo. A record applies whole or not at all: when the journal refuses it,
// nothing was removed and nothing memoized. With no entry to name (a
// standby that never held them) what is left of a tokened op is its memo.
func (s *Space) consumeLocked(ses []*storedEntry, tok OpToken, rec memoRec) error {
	if len(ses) == 0 {
		if !tok.Zero() {
			s.installMemoLocked(tok, rec)
		}
		return nil
	}
	if s.journal != nil {
		var one [1]uint64 // a take's, which names one entry
		r := record{kind: recRemove, seqs: one[:0]}
		for _, se := range ses {
			r.seqs = append(r.seqs, se.id)
		}
		if !tok.Zero() {
			var taken [1]Entry // a take's answer, which is one entry
			r.tok, r.memoOp, r.key, r.entries = tok, rec.op, rec.key, rec.entriesIn(taken[:0])
		}
		if err := s.journal.record(&r); err != nil {
			return err
		}
	}
	for _, se := range ses {
		s.removeLocked(se)
	}
	if !tok.Zero() {
		s.memoInsertLocked(tok, rec)
	}
	return nil
}

// EncodeState captures the space's journal-visible state — every public
// (or take-locked: the take has not committed) unexpired entry — as write
// records in id order, followed by the memo table's records (entries
// first, so replay binds write memos to restored entries). It is the
// capture function behind WAL snapshots: replaying the returned records
// into an empty space reproduces the live contents.
func (s *Space) EncodeState() ([][]byte, error) {
	records, err := s.EncodeStateWhere(nil)
	if err != nil {
		return nil, err
	}
	memos, err := s.EncodeMemosWhere(nil)
	if err != nil {
		return nil, err
	}
	return append(records, memos...), nil
}

// EncodeStateWhere is EncodeState restricted to entries matching pred
// (nil matches everything). It is the capture half of a resharding
// snapshot-fork: the records for exactly the entries whose key range is
// moving, consistent with the journal stream because capture happens
// under the same space mutex every journal append holds.
func (s *Space) EncodeStateWhere(pred func(Entry) bool) ([][]byte, error) {
	s.lock()
	var live []*storedEntry
	now := s.clock.Now()
	for _, st := range s.types {
		for _, se := range st.all.items {
			if se.removed || se.writtenUnder != 0 || se.expired(now) {
				continue
			}
			if pred != nil && !pred(se.entry()) {
				continue
			}
			live = append(live, se)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	expiries := make([]int64, len(live)) // a lease can be renewed once the mutex is released
	for i, se := range live {
		expiries[i] = se.expiry
	}
	s.unlock()
	return encodeWrites(live, expiries, "snapshot")
}

// encodeWrites returns one untokened write record per entry. It runs
// outside the mutex: a stored value is never written to again.
func encodeWrites(ses []*storedEntry, expiries []int64, what string) ([][]byte, error) {
	records := make([][]byte, len(ses))
	for i, se := range ses {
		var err error
		records[i], err = encodeRecord(&record{
			kind: recWrite, seqs: []uint64{se.id}, expiry: expiryTime(expiries[i]),
			entries: []Entry{se.entry()},
		})
		if err != nil {
			return records[:i], fmt.Errorf("tuplespace: %s entry %d: %w", what, se.id, err)
		}
	}
	return records, nil
}

// ReplayRecords replays already-framed records — a WAL snapshot followed
// by its tail segments — into s through a fresh Applier, the reader every
// standby and migration uses, and returns the number of live entries
// restored. Each entry keeps the id its records carry, so a record in both
// snapshot and tail applies once and a memo's lease survives the restart.
// Nothing is written to s unless every record decodes; a record of another
// format fails with ErrRecordFormat.
func ReplayRecords(records [][]byte, s *Space) (int, error) {
	decoded := make([]record, len(records))
	for i, payload := range records {
		var err error
		if decoded[i], err = decodeRecord(payload); err != nil {
			return 0, fmt.Errorf("tuplespace: replay record %d: %w", i, err)
		}
	}
	a := NewApplier(s)
	for i := range decoded {
		if err := a.apply(&decoded[i], false); err != nil {
			return s.Stats().EntriesLive, err
		}
	}
	return s.Stats().EntriesLive, nil
}
