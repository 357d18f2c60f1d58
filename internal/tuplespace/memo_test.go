package tuplespace

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

func init() {
	enc.RegisterType(keyedDoc{})
}

// keyedDoc is the indexed entry type for memo-migration tests: its Key
// drives ring placement, so its memos must travel with the bucket.
type keyedDoc struct {
	Key string `space:"index"`
	Val int
}

func tok(client string, seq uint64) OpToken { return OpToken{Client: client, Seq: seq} }

// TestMemoWriteDedup: a retried WriteTok carrying the original token must
// return the original entry's lease, not store a second copy.
func TestMemoWriteDedup(t *testing.T) {
	s := newRealSpace()
	l1, err := s.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1))
	if err != nil {
		t.Fatalf("retried write: %v", err)
	}
	if n, _ := s.Count(task{Job: "mc"}); n != 1 {
		t.Fatalf("space holds %d entries after write retry, want 1 (duplicate execution)", n)
	}
	if l1.Seq() != l2.Seq() {
		t.Fatalf("retry returned lease for entry %d, want the original %d", l2.Seq(), l1.Seq())
	}
	if size, hits, _ := s.MemoStats(); size != 1 || hits != 1 {
		t.Fatalf("memo stats = (size %d, hits %d), want (1, 1)", size, hits)
	}
}

// TestMemoTakeDedup: a retried TakeTok whose original executed (reply
// lost) returns the originally consumed entry instead of eating another.
func TestMemoTakeDedup(t *testing.T) {
	s := newRealSpace()
	for i := 1; i <= 2; i++ {
		if _, err := s.Write(task{Job: "mc", ID: ip(i)}, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	got1, err := s.TakeTok(task{Job: "mc", ID: ip(1)}, nil, time.Second, tok("w1", 7))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s.TakeTok(task{Job: "mc", ID: ip(1)}, nil, time.Second, tok("w1", 7))
	if err != nil {
		t.Fatalf("retried take: %v", err)
	}
	if *got1.(task).ID != 1 || *got2.(task).ID != 1 {
		t.Fatalf("takes returned IDs %d and %d, want 1 and 1", *got1.(task).ID, *got2.(task).ID)
	}
	if n, _ := s.Count(task{Job: "mc"}); n != 1 {
		t.Fatalf("space holds %d entries after take retry, want 1 (second entry consumed)", n)
	}
}

// TestTxnTokensDedupInsideTransaction: the network redelivers every
// tokened op a transaction carries — write, take, take-all. Each
// redelivery gets the first delivery's answer and has no effect of its
// own; nothing of it reaches the memo table; commit publishes one copy,
// and after an abort nothing the transaction did remains.
func TestTxnTokensDedupInsideTransaction(t *testing.T) {
	for _, commit := range []bool{true, false} {
		s := newRealSpace()
		for i := 1; i <= 3; i++ {
			if _, err := s.Write(task{Job: "in", ID: ip(i)}, nil, Forever); err != nil {
				t.Fatal(err)
			}
		}
		tx := s.Begin(time.Minute)

		l1, err := s.WriteTok(task{Job: "out", ID: ip(1)}, tx, Forever, tok("w1", 1))
		if err != nil {
			t.Fatal(err)
		}
		l2, err := s.WriteTok(task{Job: "out", ID: ip(1)}, tx, Forever, tok("w1", 1))
		if err != nil {
			t.Fatalf("redelivered write: %v", err)
		}
		if l1.Seq() != l2.Seq() {
			t.Fatalf("redelivered write answered with entry %d, want the first delivery's %d", l2.Seq(), l1.Seq())
		}

		take1, err := s.TakeTok(task{Job: "in"}, tx, time.Second, tok("w1", 2))
		if err != nil {
			t.Fatal(err)
		}
		take2, err := s.TakeTok(task{Job: "in"}, tx, time.Second, tok("w1", 2))
		if err != nil {
			t.Fatalf("redelivered take: %v", err)
		}
		if *take1.(task).ID != *take2.(task).ID {
			t.Fatalf("redelivered take returned %d, want the first delivery's %d", *take2.(task).ID, *take1.(task).ID)
		}

		all1, err := s.TakeAllTok(task{Job: "in"}, tx, 0, tok("w1", 3))
		if err != nil {
			t.Fatal(err)
		}
		all2, err := s.TakeAllTok(task{Job: "in"}, tx, 0, tok("w1", 3))
		if err != nil {
			t.Fatalf("redelivered take-all: %v", err)
		}
		if len(all1) != 2 || !reflect.DeepEqual(all1, all2) {
			t.Fatalf("take-all answered %v then %v, want the same two entries twice", all1, all2)
		}
		if size, _, _ := s.MemoStats(); size != 0 {
			t.Fatalf("memo table holds %d rows, want 0: a transaction's tokens are not memoized", size)
		}

		wantIn, wantOut := 0, 1
		if commit {
			err = tx.Commit()
		} else {
			err, wantIn, wantOut = tx.Abort(), 3, 0
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := s.Count(task{Job: "in"}); n != wantIn {
			t.Fatalf("commit=%v: %d inputs left, want %d", commit, n, wantIn)
		}
		if n, _ := s.Count(task{Job: "out"}); n != wantOut {
			t.Fatalf("commit=%v: %d outputs published, want %d", commit, n, wantOut)
		}
		if st := s.Stats(); st.EntriesLive != wantIn+wantOut {
			t.Fatalf("commit=%v: %d entries live, want %d", commit, st.EntriesLive, wantIn+wantOut)
		}
	}
}

// TestTxnTokenParkedRedeliveryGetsFirstAnswer: a blocking take under a
// transaction parks, and its redelivery parks beside it. The first entry
// to arrive satisfies the first delivery; the second must not be consumed
// by the redelivery, which answers with the first entry instead.
func TestTxnTokenParkedRedeliveryGetsFirstAnswer(t *testing.T) {
	s := newRealSpace()
	tx := s.Begin(time.Minute)
	type reply struct {
		e   Entry
		err error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			e, err := s.TakeTok(task{Job: "in"}, tx, 5*time.Second, tok("w1", 9))
			replies <- reply{e, err}
		}()
	}
	for s.Stats().Waiting < 2 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 2; i++ {
		if _, err := s.Write(task{Job: "in", ID: ip(i)}, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if id := *r.e.(task).ID; id != 1 {
			t.Fatalf("delivery %d took entry %d, want 1 (the first delivery's answer)", i, id)
		}
	}
	if n, _ := s.Count(task{Job: "in", ID: ip(2)}); n != 1 {
		t.Fatal("the redelivered take consumed a second entry")
	}
}

// TestMemoBoundsEviction: the table is FIFO-bounded per client and
// globally, eviction is counted, and a token evicted past the bound
// degrades that one op back to at-most-once (its retry re-executes).
func TestMemoBoundsEviction(t *testing.T) {
	s := newRealSpace()
	s.SetMemoBounds(2, 0)
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := s.WriteTok(task{Job: "mc", ID: ip(int(seq))}, nil, Forever, tok("w1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	size, _, evicted := s.MemoStats()
	if size != 2 || evicted != 1 {
		t.Fatalf("memo stats after per-client overflow = (size %d, evicted %d), want (2, 1)", size, evicted)
	}
	// Token 1 was evicted: its retry re-executes — the documented
	// residual once a client outruns the bound.
	if _, err := s.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(task{Job: "mc", ID: ip(1)}); n != 2 {
		t.Fatalf("evicted token's retry stored %d copies, want 2 (re-execution past the bound)", n)
	}

	// Global bound across clients.
	g := newRealSpace()
	g.SetMemoBounds(0, 2)
	for i := 1; i <= 3; i++ {
		if _, err := g.WriteTok(task{Job: "mc", ID: ip(i)}, nil, Forever, tok(fmt.Sprintf("w%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if size, _, evicted := g.MemoStats(); size != 2 || evicted != 1 {
		t.Fatalf("memo stats after global overflow = (size %d, evicted %d), want (2, 1)", size, evicted)
	}
}

// TestMemoRebuildFromReplay: crash-restart. A space's journal stream
// replayed into a fresh space (the WAL recovery path) must rebuild the
// memo table, so retries arriving after the restart still deduplicate.
func TestMemoRebuildFromReplay(t *testing.T) {
	clk := vclock.NewReal()
	src := New(clk)
	sink := &captureSink{}
	if err := src.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(task{Job: "mc", ID: ip(2)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := src.TakeTok(task{Job: "mc", ID: ip(2)}, nil, time.Second, tok("w1", 2)); err != nil {
		t.Fatal(err)
	}

	restored := New(clk)
	if n, err := ReplayRecords(sink.recs, restored); err != nil || n != 1 {
		t.Fatalf("replay: restored %d entries, err %v; want 1, nil", n, err)
	}
	// The write retry finds its memo: no second copy.
	if _, err := restored.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if n, _ := restored.Count(task{Job: "mc"}); n != 1 {
		t.Fatalf("restored space holds %d entries after write retry, want 1", n)
	}
	// The take retry returns the consumed entry instead of blocking or
	// consuming entry 1.
	got, err := restored.TakeTok(task{Job: "mc", ID: ip(2)}, nil, 10*time.Millisecond, tok("w1", 2))
	if err != nil {
		t.Fatalf("take retry after restart: %v", err)
	}
	if *got.(task).ID != 2 {
		t.Fatalf("take retry returned ID %d, want the memoized 2", *got.(task).ID)
	}
	if n, _ := restored.Count(task{Job: "mc"}); n != 1 {
		t.Fatalf("take retry consumed a live entry: %d left, want 1", n)
	}
}

// TestApplierMemoRebuildChainedFailovers: memos survive two hops of
// incremental replication — primary → standby A → standby B — because
// each applier re-journals what it installs. A retry landing on the
// twice-promoted B still deduplicates.
func TestApplierMemoRebuildChainedFailovers(t *testing.T) {
	clk := vclock.NewReal()
	src := New(clk)
	srcSink := &captureSink{}
	if err := src.AttachJournal(NewJournalSink(srcSink)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(task{Job: "mc", ID: ip(2)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := src.TakeTok(task{Job: "mc", ID: ip(2)}, nil, time.Second, tok("w1", 2)); err != nil {
		t.Fatal(err)
	}

	// Standby A journals its own stream so a standby-of-standby (the
	// post-promotion chain) receives memos too.
	a := New(clk)
	aSink := &captureSink{}
	if err := a.AttachJournal(NewJournalSink(aSink)); err != nil {
		t.Fatal(err)
	}
	aApp := NewApplier(a)
	for i, rec := range srcSink.recs {
		if err := aApp.Apply(rec); err != nil {
			t.Fatalf("standby A: apply record %d: %v", i, err)
		}
	}

	b := New(clk)
	bApp := NewApplier(b)
	for i, rec := range aSink.recs {
		if err := bApp.Apply(rec); err != nil {
			t.Fatalf("standby B: apply record %d: %v", i, err)
		}
	}

	for _, sp := range []*Space{a, b} {
		if _, err := sp.WriteTok(task{Job: "mc", ID: ip(1)}, nil, Forever, tok("w1", 1)); err != nil {
			t.Fatal(err)
		}
		if n, _ := sp.Count(task{Job: "mc"}); n != 1 {
			t.Fatalf("standby holds %d entries after write retry, want 1", n)
		}
		got, err := sp.TakeTok(task{Job: "mc", ID: ip(2)}, nil, 10*time.Millisecond, tok("w1", 2))
		if err != nil {
			t.Fatalf("take retry on standby: %v", err)
		}
		if *got.(task).ID != 2 {
			t.Fatalf("take retry returned ID %d, want the memoized 2", *got.(task).ID)
		}
	}
}

// TestApplierMemoFilter: in migration mode only memos for the migrating
// bucket range install; unkeyed memos always ship (over-shipping is safe,
// under-shipping re-executes).
func TestApplierMemoFilter(t *testing.T) {
	clk := vclock.NewReal()
	src := New(clk)
	sink := &captureSink{}
	if err := src.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTok(keyedDoc{Key: "mine", Val: 1}, nil, Forever, tok("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTok(keyedDoc{Key: "other", Val: 2}, nil, Forever, tok("w1", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTok(task{Job: "mc", ID: ip(3)}, nil, Forever, tok("w1", 3)); err != nil {
		t.Fatal(err)
	}

	dst := New(clk)
	app := NewApplier(dst).SetMemoFilter(func(key string, keyed bool) bool {
		return !keyed || key == "mine"
	})
	for i, rec := range sink.recs {
		if err := app.Apply(rec); err != nil {
			t.Fatalf("apply record %d: %v", i, err)
		}
	}
	if size, _, _ := dst.MemoStats(); size != 2 {
		t.Fatalf("filtered applier installed %d memos, want 2 (keyed 'mine' + unkeyed)", size)
	}
	// The filtered-out token re-executes; the shipped ones dedup.
	if _, err := dst.WriteTok(keyedDoc{Key: "mine", Val: 1}, nil, Forever, tok("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.Count(keyedDoc{Key: "mine"}); n != 1 {
		t.Fatalf("shipped memo did not dedup: %d copies of 'mine'", n)
	}
	if _, err := dst.WriteTok(keyedDoc{Key: "other", Val: 2}, nil, Forever, tok("w1", 2)); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.Count(keyedDoc{Key: "other"}); n != 2 {
		t.Fatalf("filtered-out memo unexpectedly deduped: %d copies of 'other', want 2", n)
	}
}
