package tuplespace

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// A primary killed mid-stream leaves its standby a prefix of its records,
// and a crash leaves the WAL one. Every prefix must be a state from which
// retrying every operation, with its token, loses nothing and repeats
// nothing. With one record per operation that is no longer an ordering
// contract between a mutation's record and its memo's, but it is still the
// property — and this test holds every prefix of random streams to it.

type tornKind int

const (
	tornWrite tornKind = iota
	tornTake
	tornTakeAll
	tornCancel
	tornCommit
)

// tornOp is one tokened operation as it ran on the source, and what it
// returned there.
type tornOp struct {
	kind   tornKind
	tok    OpToken
	key    string
	id     int   // write: the entry's ID
	max    int   // take-all: its bound
	target int   // cancel: index of the write whose lease it cancels
	rec    int   // index of the op's one record in the stream; -1 when it journaled none
	got    []int // take, take-all: the IDs returned; cancel: the ID when it succeeded
	parked bool  // take: parked on the source until the next op, a write, satisfied it
}

func docIDs(entries ...Entry) []int {
	ids := []int{}
	for _, e := range entries {
		if e != nil {
			ids = append(ids, e.(doc).ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// run executes op against s, recording its outcome in op.got. leases holds,
// per write op index, the lease that write (or its retry) returned on s.
func (op *tornOp) run(t *testing.T, s *Space, leases map[int]EntryLease, self int) {
	t.Helper()
	fail := func(err error, tolerated ...error) {
		for _, ok := range tolerated {
			if err == nil || errors.Is(err, ok) {
				return
			}
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", self, *op, err)
		}
	}
	op.got = nil
	switch op.kind {
	case tornWrite:
		l, err := s.WriteTok(doc{Key: op.key, ID: op.id}, nil, Forever, op.tok)
		fail(err)
		leases[self] = l
	case tornTake:
		e, err := s.Lookup(true, false, doc{Key: op.key}, nil, 0, op.tok)
		fail(err, ErrNoMatch)
		op.got = docIDs(e)
	case tornTakeAll:
		es, err := s.TakeAllTok(doc{Key: op.key}, nil, op.max, op.tok)
		fail(err)
		op.got = docIDs(es...)
	case tornCancel:
		err := leases[op.target].CancelTok(op.tok)
		fail(err, ErrLeaseExpired)
		if err == nil {
			op.got = []int{-1} // the target's ID, filled in by the caller
		}
	case tornCommit:
		tx := s.Begin(0)
		_ = s.Commit(tx, op.tok)
		_ = tx.Abort() // still open when its commit was answered from the memo
	}
}

// tornStream runs a random sequence of tokened operations against a
// journaled space and returns them with the records they left.
func tornStream(t *testing.T, rng *rand.Rand) ([]tornOp, [][]byte) {
	t.Helper()
	src := newRealSpace()
	sink := &captureSink{}
	if err := src.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	var ops []tornOp
	leases := map[int]EntryLease{}
	var writes []int // indexes of write ops
	nextID := 1
	next := func(kind tornKind) *tornOp {
		ops = append(ops, tornOp{kind: kind, tok: tok("c", uint64(len(ops)+1)), key: string(rune('a' + rng.Intn(3))), rec: -1})
		return &ops[len(ops)-1]
	}
	journaled := func(op *tornOp, before int) {
		switch len(sink.recs) - before {
		case 0:
		case 1:
			op.rec = before
		default:
			t.Fatalf("op %+v left %d records", *op, len(sink.recs)-before)
		}
	}
	for n := 4 + rng.Intn(8); len(ops) < n; {
		before := len(sink.recs)
		op := next(tornKind(rng.Intn(5)))
		switch {
		case op.kind == tornWrite:
			op.id, nextID = nextID, nextID+1
			writes = append(writes, len(ops)-1)
		case op.kind == tornTakeAll:
			op.max = rng.Intn(3)
		case op.kind == tornCancel && len(writes) == 0:
			op.kind = tornCommit
		case op.kind == tornCancel:
			op.target = writes[rng.Intn(len(writes))]
			op.key = ops[op.target].key
		case op.kind == tornTake && rng.Intn(3) == 0:
			if n, _ := src.Count(doc{Key: op.key}); n == 0 {
				// Park it, and let a write satisfy it: the write's record
				// comes first, the take's second.
				op.parked = true
				take, key := len(ops)-1, op.key
				done := make(chan Entry, 1)
				go func(tok OpToken) {
					e, _ := src.TakeTok(doc{Key: key}, nil, 10*time.Second, tok)
					done <- e
				}(op.tok)
				waitFor(t, "the taker to park", func() bool { return src.Stats().Waiting == 1 })
				w := next(tornWrite)
				w.key, w.id, nextID = key, nextID, nextID+1
				writes = append(writes, len(ops)-1)
				w.run(t, src, leases, len(ops)-1)
				ops[take].got = docIDs(<-done)
				if len(sink.recs)-before != 2 {
					t.Fatalf("a parked take and its write left %d records", len(sink.recs)-before)
				}
				w.rec, ops[take].rec = before, before+1
				continue
			}
		}
		op.run(t, src, leases, len(ops)-1)
		if op.kind == tornCancel && op.got != nil {
			op.got = []int{ops[op.target].id}
		}
		journaled(op, before)
	}
	return ops, sink.recs
}

// checkPrefix builds a standby from records[:k] the way mode says, retries
// every op against it and requires: an op whose record is in the prefix is
// answered from its memo with what it returned on the source; one whose
// record is not re-executes; and every entry ever written is, at the end,
// in exactly one place — the space, one take's result, or cancelled.
func checkPrefix(t *testing.T, mode string, ops []tornOp, records [][]byte, k int) {
	t.Helper()
	const migrating = "a"
	s := newRealSpace()
	mine := func(key string) bool { return mode != "migration" || key == migrating }
	switch mode {
	case "replay":
		if _, err := ReplayRecords(records[:k], s); err != nil {
			t.Fatalf("replay of %d records: %v", k, err)
		}
	default:
		a := NewApplier(s)
		if mode == "migration" {
			a.SetFilter(func(e Entry) bool { return e.(doc).Key == migrating })
			a.SetMemoFilter(func(key string, keyed bool) bool { return !keyed || key == migrating })
		}
		var written []uint64
		for i, rec := range records[:k] {
			if err := a.Apply(rec); err != nil {
				t.Fatalf("apply record %d: %v", i, err)
			}
			if r, _ := decodeRecord(rec); r.kind == recWrite {
				written = append(written, r.seqs[0])
			}
		}
		if mode == "migration" && len(written) > 0 {
			// A retry reaches this side only after the cutover, and the
			// cutover waits for the source to evict whatever it still
			// holds of the range: that eviction reveals the staged copies.
			if err := a.Apply(mustEncode(t, record{kind: recEvict, seqs: written})); err != nil {
				t.Fatalf("apply the settle's evict: %v", err)
			}
		}
	}
	if mode == "migration" {
		if es, _ := s.ReadAll(doc{}, nil, 0); len(es) > 0 {
			for _, e := range es {
				if e.(doc).Key != migrating {
					t.Fatalf("the migration filter let %+v through", e)
				}
			}
		}
	}

	where := map[int]string{} // entry ID → the one place it ended up
	put := func(id int, place string) {
		if was, dup := where[id]; dup {
			t.Fatalf("%s, %d of %d records: entry %d is both %s and %s\nops: %+v", mode, k, len(records), id, was, place, ops)
		}
		where[id] = place
	}
	leases := map[int]EntryLease{}
	for i := range ops {
		orig := ops[i]
		if orig.kind != tornCommit && !mine(orig.key) {
			continue // the ring routes this op's retry to another shard
		}
		retry := orig
		_, hitsBefore, _ := s.MemoStats()
		retry.run(t, s, leases, i)
		_, hitsAfter, _ := s.MemoStats()
		if retry.kind == tornCancel && retry.got != nil {
			retry.got = []int{ops[retry.target].id}
		}
		inPrefix := orig.rec >= 0 && orig.rec < k
		if hit := hitsAfter > hitsBefore; hit != inPrefix {
			t.Fatalf("%s, %d of %d records: op %d (%+v) answered from its memo: %v, its record in the prefix: %v", mode, k, len(records), i, orig, hit, inPrefix)
		}
		if inPrefix && fmt.Sprint(retry.got) != fmt.Sprint(orig.got) {
			t.Fatalf("%s, %d of %d records: op %d (%+v) retried to %v", mode, k, len(records), i, orig, retry.got)
		}
		for _, id := range retry.got {
			put(id, fmt.Sprintf("consumed by op %d", i))
		}
	}
	es, err := s.ReadAll(doc{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		put(e.(doc).ID, "in the space")
	}
	for _, op := range ops {
		if op.kind == tornWrite && mine(op.key) && where[op.id] == "" {
			t.Fatalf("%s, %d of %d records: entry %d is lost\nops: %+v", mode, k, len(records), op.id, ops)
		}
	}
}

func TestTornStreamEveryPrefixIsSafe(t *testing.T) {
	streams := 1000
	if testing.Short() {
		streams = 100
	}
	for seed := 0; seed < streams; seed++ {
		ops, records := tornStream(t, rand.New(rand.NewSource(int64(seed))))
		for k := 0; k <= len(records); k++ {
			for _, mode := range []string{"applier", "replay", "migration"} {
				checkPrefix(t, mode, ops, records, k)
			}
		}
	}
}
