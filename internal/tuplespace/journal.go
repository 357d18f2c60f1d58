package tuplespace

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/metrics"
)

// The paper (§3) notes that JavaSpaces "provides associative lookup of
// persistent objects": Outrigger could run in persistent mode, surviving
// restarts. Journal gives the space the same property: every publicly
// visible mutation (a committed write, a committed take, a cancellation
// or eviction) is appended as one self-contained record (record.go), and
// ReplayRecords reconstructs the live entries into a fresh space.
// Transactions interact correctly: only committed effects reach the
// journal.
//
// Records flow into a RecordSink; the durable space service plugs in
// internal/wal for segmented, checksummed, snapshot-compacted storage.

// CounterJournalErrors is the metrics key under which failed journal
// appends are counted (strict and non-strict mode alike). The string is
// owned by the canonical name set in internal/metrics/names.go — this
// used to be the ad-hoc "journal_errors", the one key that broke the
// "<subsystem>:<metric>" convention.
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
// By default the journal is lenient: a failed append is counted (see
// CounterJournalErrors), retained as Err, and the space operation
// succeeds anyway — but unlike earlier versions, later mutations keep
// being appended, so one transient disk error no longer silently voids
// the rest of the log. In strict mode (SetStrict) the durability error is
// returned to the space caller and the mutation does not take effect:
// nothing is acknowledged that was not logged.
type Journal struct {
	sink RecordSink
	idle interface{ Dropping() bool } // sink, when it can tell; else nil

	mu       sync.Mutex
	strict   bool
	counters *metrics.Counters
	err      error
}

// NewJournalSink returns a journal appending records to sink. Entry types
// that pass through the journal must be registered with enc.RegisterType
// (transport.RegisterType is the same registry).
func NewJournalSink(sink RecordSink) *Journal {
	j := &Journal{sink: sink}
	j.idle, _ = sink.(interface{ Dropping() bool })
	return j
}

// SetStrict switches the journal's failure mode: when strict, space
// mutations return the durability error instead of succeeding unlogged.
// Returns j for chaining.
func (j *Journal) SetStrict(strict bool) *Journal {
	j.mu.Lock()
	j.strict = strict
	j.mu.Unlock()
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

// Err returns the first append error the journal encountered, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// record appends r. In strict mode the error is returned to the caller;
// otherwise it is recorded and swallowed — but subsequent records are still
// attempted.
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
	err = fmt.Errorf("tuplespace: journal: %w", err)
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	strict, counters := j.strict, j.counters
	j.mu.Unlock()
	if counters != nil {
		counters.Inc(CounterJournalErrors)
	}
	if strict {
		return err
	}
	return nil
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
// where the space is deliberately non-empty. The caller is responsible
// for snapshotting promptly so the old log (whose Seq numbering the
// recovered space no longer shares) is compacted away.
func (s *Space) AttachRecoveredJournal(j *Journal) {
	s.lock()
	s.journal = j
	s.unlock()
}

// journalLocked appends r to the space's journal, if it has one. Caller
// holds s.mu. A non-nil return (strict journal only) means r was not
// logged, and what it describes must not happen.
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
		kind: recWrite, seqs: []uint64{se.id}, expiry: se.expiry, tok: tok,
		entries: []Entry{enc.Interface(se.val)},
	})
}

// consumeLocked is how entries leave the space for good outside a
// transaction — a take, a take-all, a lease cancel, a standby applying its
// primary's remove: one record naming every entry of ses, carrying tok and
// what the op returned when it was tokened, then the removals and the memo.
// A record applies whole or not at all: when a strict journal refuses it,
// nothing was removed and nothing memoized. With no entry to name (a
// standby that never held them) what is left of a tokened op is its memo.
func (s *Space) consumeLocked(ses []*storedEntry, tok OpToken, op, key string, returned []Entry) error {
	if len(ses) == 0 {
		if !tok.Zero() {
			s.installMemoLocked(tok, &memoRec{op: op, key: key, entries: returned})
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
			r.tok, r.memoOp, r.key, r.entries = tok, op, key, returned
		}
		if err := s.journal.record(&r); err != nil {
			return err
		}
	}
	for _, se := range ses {
		s.removeLocked(se)
	}
	if !tok.Zero() {
		s.memoInsertLocked(tok, &memoRec{op: op, key: key, entries: returned})
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
			if pred != nil && !pred(se.val.Interface()) {
				continue
			}
			live = append(live, se)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	expiries := make([]time.Time, len(live)) // a lease can be renewed once the mutex is released
	for i, se := range live {
		expiries[i] = se.expiry
	}
	s.unlock()
	return encodeWrites(live, expiries, "snapshot")
}

// encodeWrites returns one untokened write record per entry. It runs
// outside the mutex: a stored value is never written to again.
func encodeWrites(ses []*storedEntry, expiries []time.Time, what string) ([][]byte, error) {
	records := make([][]byte, len(ses))
	for i, se := range ses {
		var err error
		records[i], err = encodeRecord(&record{
			kind: recWrite, seqs: []uint64{se.id}, expiry: expiries[i],
			entries: []Entry{enc.Interface(se.val)},
		})
		if err != nil {
			return records[:i], fmt.Errorf("tuplespace: %s entry %d: %w", what, se.id, err)
		}
	}
	return records, nil
}

// replayState folds journal records into the set of surviving entries.
type replayState struct {
	live  map[uint64]replayPending
	order []uint64
	memos []record // every tokened record, installed after the entries
}

type replayPending struct {
	entry  Entry
	expiry time.Time
}

func newReplayState() *replayState {
	return &replayState{live: make(map[uint64]replayPending)}
}

func (st *replayState) apply(r record) {
	switch r.kind {
	case recWrite:
		st.live[r.seqs[0]] = replayPending{entry: r.entries[0], expiry: r.expiry}
		st.order = append(st.order, r.seqs[0])
	case recRemove, recEvict:
		for _, seq := range r.seqs {
			delete(st.live, seq)
		}
	}
	if !r.tok.Zero() {
		st.memos = append(st.memos, r)
	}
}

// materialize writes the surviving entries into s, restoring remaining
// leases relative to the space's clock. Duplicate write records for one
// Seq (snapshot/segment overlap) materialize once: each Seq is consumed
// on first use.
func (st *replayState) materialize(s *Space) (int, error) {
	now := s.clock.Now()
	restored := 0
	// Write memos reference their entry by the journal's (old) Seq; the
	// re-written entries get fresh ids, so track the binding as we go.
	var byOldSeq map[uint64]*EntryLease
	if len(st.memos) > 0 {
		byOldSeq = make(map[uint64]*EntryLease)
	}
	for _, seq := range st.order {
		p, ok := st.live[seq]
		if !ok {
			continue
		}
		delete(st.live, seq)
		ttl := Forever
		if !p.expiry.IsZero() {
			ttl = p.expiry.Sub(now)
			if ttl <= 0 {
				continue // lease already expired
			}
		}
		l, err := s.write(p.entry, nil, ttl, OpToken{}, writeMirror)
		if err != nil {
			return restored, fmt.Errorf("tuplespace: replay entry %d: %w", seq, err)
		}
		if byOldSeq != nil {
			byOldSeq[seq] = l
		}
		restored++
	}
	for i := range st.memos {
		r := &st.memos[i]
		op, key, entries := r.memo()
		var l *EntryLease
		if op == MemoWrite && len(r.seqs) == 1 {
			// nil when the written entry was since consumed: the memo
			// resolves to a detached expired lease on retry, which is the
			// truth — the write happened and its entry is gone.
			l = byOldSeq[r.seqs[0]]
		}
		s.installMemo(r.tok, &memoRec{op: op, key: key, entries: entries, lease: l})
	}
	return restored, nil
}

// ReplayRecords replays already-framed records — a WAL snapshot followed
// by its tail segments — into s and returns the number of live entries
// restored. Records overlapping between snapshot and tail are
// deduplicated by Seq. Nothing is written to s unless every record
// decodes; a record of another format fails with ErrRecordFormat.
func ReplayRecords(records [][]byte, s *Space) (int, error) {
	st := newReplayState()
	for i, payload := range records {
		r, err := decodeRecord(payload)
		if err != nil {
			return 0, fmt.Errorf("tuplespace: replay record %d: %w", i, err)
		}
		st.apply(r)
	}
	return st.materialize(s)
}
