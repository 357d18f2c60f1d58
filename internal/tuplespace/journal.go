package tuplespace

import (
	"bytes"
	"encoding/gob"
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
// or expiry) is appended as a self-contained gob record, and
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

// RegisterType registers a concrete entry type for journal and WAL
// records. It is the same registry the transport layer uses, so one
// registration covers the wire and the disk.
func RegisterType(v interface{}) { enc.RegisterType(v) }

// journalOp is one durable mutation.
type journalOp struct {
	// Kind is "write", "remove" or "evict". An evict is a remove whose
	// cause is resharding rather than consumption: the entry left this
	// space because another shard now owns its key range, not because a
	// take consumed it. Recovery and replication treat the two alike (the
	// entry is gone from this space either way); a resharding migration
	// tap distinguishes them so an eviction on the source never cancels
	// the migrated copy on the destination.
	Kind string
	// Seq is the entry's space-assigned identity, stable across the
	// journal so removes can reference prior writes.
	Seq uint64
	// Entry is the written entry (write records only).
	Entry interface{}
	// Expiry is the entry's absolute lease expiry (zero = forever).
	Expiry time.Time

	// The remaining fields describe a "memo" record: a memoized mutation
	// outcome for exactly-once retries (see memo.go). Memo records ride
	// the same stream as entry records so recovery, replication and
	// reshard migration rebuild the memo table alongside the entries. For
	// write memos Seq references the written entry's record; take memos
	// are self-contained via MemoEntries.
	Tok         OpToken
	MemoOp      string // one of the Memo* constants
	MemoKey     string // index key the op touched ("" when unkeyed)
	MemoKeyed   bool
	MemoEntries []Entry // take/takeall memos: the originally returned entries
}

// encodeOp gob-encodes op as a self-contained record: a fresh encoder per
// record, so each record carries its own type descriptors and decodes
// independently — the property segmented WAL storage needs (any segment
// may be the first one read after compaction).
func encodeOp(op journalOp) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&op); err != nil {
		return nil, enc.WrapEncodeError(err, op.Entry)
	}
	return buf.Bytes(), nil
}

func decodeOp(payload []byte) (journalOp, error) {
	var op journalOp
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&op); err != nil {
		return journalOp{}, err
	}
	return op, nil
}

// RecordSink is the destination for journal records. internal/wal's Log
// satisfies it.
type RecordSink interface {
	// Append stores one record durably (per the sink's own policy) and
	// returns any storage error.
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

	mu       sync.Mutex
	strict   bool
	counters *metrics.Counters
	err      error
}

// NewJournalSink returns a journal appending records to sink. Entry types
// that pass through the journal must be registered via RegisterType (the
// transport layer's registrations count too).
func NewJournalSink(sink RecordSink) *Journal {
	return &Journal{sink: sink}
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

// record appends one op. In strict mode the error is returned to the
// caller; otherwise it is recorded and swallowed — but subsequent ops are
// still attempted.
func (j *Journal) record(op journalOp) error {
	payload, err := encodeOp(op)
	if err == nil {
		err = j.sink.Append(payload)
	}
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
	s.mu.Lock()
	defer s.unlock()
	if s.live > 0 {
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
	s.mu.Lock()
	s.journal = j
	s.unlock()
}

// journalWriteLocked records a newly public entry. Caller holds s.mu. A
// non-nil return (strict journal only) means the write was not logged.
func (s *Space) journalWriteLocked(se *storedEntry) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.record(journalOp{
		Kind:   "write",
		Seq:    se.id,
		Entry:  se.val.Interface(),
		Expiry: se.expiry,
	})
}

// journalRemoveLocked records a public entry's permanent removal. Caller
// holds s.mu.
func (s *Space) journalRemoveLocked(se *storedEntry) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.record(journalOp{Kind: "remove", Seq: se.id})
}

// journalEvictLocked records an entry's eviction — removal because the
// key range moved to another shard during resharding. Caller holds s.mu.
func (s *Space) journalEvictLocked(se *storedEntry) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.record(journalOp{Kind: "evict", Seq: se.id})
}

// EncodeState captures the space's journal-visible state — every public
// (or take-locked: the take has not committed) unexpired entry — as
// self-contained write records in id order, followed by the memo table's
// records (entries first, so replay binds write memos to restored
// entries). It is the capture function behind WAL snapshots: replaying
// the returned records into an empty space reproduces the live contents.
func (s *Space) EncodeState() ([][]byte, error) {
	records, err := s.EncodeStateWhere(nil)
	if err != nil {
		return nil, err
	}
	memos, err := s.EncodeMemos()
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
	s.mu.Lock()
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
	ops := make([]journalOp, len(live))
	for i, se := range live {
		ops[i] = journalOp{Kind: "write", Seq: se.id, Entry: se.val.Interface(), Expiry: se.expiry}
	}
	s.unlock()

	records := make([][]byte, len(ops))
	for i, op := range ops {
		payload, err := encodeOp(op)
		if err != nil {
			return nil, fmt.Errorf("tuplespace: snapshot entry %d: %w", op.Seq, err)
		}
		records[i] = payload
	}
	return records, nil
}

// replayState folds journal ops into the set of surviving entries.
type replayState struct {
	live  map[uint64]replayPending
	order []uint64
	memos []journalOp // memo records, installed after the entries
}

type replayPending struct {
	entry  Entry
	expiry time.Time
}

func newReplayState() *replayState {
	return &replayState{live: make(map[uint64]replayPending)}
}

func (st *replayState) apply(op journalOp) error {
	switch op.Kind {
	case "write":
		if op.Entry == nil {
			return errors.New("write record without entry")
		}
		st.live[op.Seq] = replayPending{entry: op.Entry, expiry: op.Expiry}
		st.order = append(st.order, op.Seq)
	case "remove", "evict":
		delete(st.live, op.Seq)
	case "memo":
		if op.Tok.Zero() {
			return errors.New("memo record without token")
		}
		st.memos = append(st.memos, op)
	default:
		return fmt.Errorf("unknown op %q", op.Kind)
	}
	return nil
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
		l, err := s.Write(p.entry, nil, ttl)
		if err != nil {
			return restored, fmt.Errorf("tuplespace: replay entry %d: %w", seq, err)
		}
		if byOldSeq != nil {
			byOldSeq[seq] = l
		}
		restored++
	}
	for _, op := range st.memos {
		var l *EntryLease
		if op.MemoOp == MemoWrite {
			// nil when the written entry was since consumed: the memo
			// resolves to a detached expired lease on retry, which is the
			// truth — the write happened and its entry is gone.
			l = byOldSeq[op.Seq]
		}
		s.InstallMemo(op.Tok, op.MemoOp, op.MemoKey, op.MemoKeyed, op.MemoEntries, l)
	}
	return restored, nil
}

// ReplayRecords replays already-framed records — a WAL snapshot followed
// by its tail segments — into s and returns the number of live entries
// restored. Records overlapping between snapshot and tail are
// deduplicated by Seq.
func ReplayRecords(records [][]byte, s *Space) (int, error) {
	st := newReplayState()
	for i, payload := range records {
		op, err := decodeOp(payload)
		if err != nil {
			return 0, fmt.Errorf("tuplespace: replay record %d: %w", i, err)
		}
		if err := st.apply(op); err != nil {
			return 0, fmt.Errorf("tuplespace: replay record %d: %w", i, err)
		}
	}
	return st.materialize(s)
}
