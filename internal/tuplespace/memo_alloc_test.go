package tuplespace

import (
	"testing"

	"gospaces/internal/vclock"
)

// discardSink accepts every record and keeps none.
type discardSink struct{}

func (discardSink) Append([]byte) error { return nil }

// memoPairRuns is how many pairs each arm of TestMemoAllocations measures,
// past a warm-up that fills the memo table to its bounds.
const (
	memoPairRuns   = 400
	memoPairWarmup = 64
	memoPairBound  = 16
)

// TestMemoAllocations: a memo costs a tokened mutation no allocation, on a
// primary and on its standby. A tokened write+take pair on a journaled
// space allocates no more than the same pair untokened, and so does a
// standby's Applier applying the pair's write and remove records: the
// memo table keeps its rows by value and a take's entry inline, and the
// standby's take memo answers with the entry it already holds. The table
// is held at its bounds, so every tokened op also evicts one row. Skipped
// under the race detector, which allocates on its own.
func TestMemoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	payload := make([]byte, 64)
	e, tmpl := paddedDoc{Key: "k", N: 7, Pad: payload}, paddedDoc{Key: "k"}
	pair := func(s *Space, tk OpToken) {
		if _, err := s.WriteTok(e, nil, Forever, tk); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Lookup(true, false, tmpl, nil, 0, tk); err != nil || got.(paddedDoc).N != 7 {
			t.Fatalf("take = %v, %v", got, err)
		}
	}
	primary := func(tokened bool) (float64, *Space) {
		s := New(vclock.NewReal())
		if err := s.AttachJournal(NewJournalSink(discardSink{})); err != nil {
			t.Fatal(err)
		}
		s.SetMemoBounds(memoPairBound, memoPairBound)
		var seq uint64
		next := func() OpToken {
			if !tokened {
				return OpToken{}
			}
			seq++
			return tok("c", seq)
		}
		for i := 0; i < memoPairWarmup; i++ {
			pair(s, next())
		}
		return testing.AllocsPerRun(memoPairRuns, func() { pair(s, next()) }), s
	}
	standby := func(tokened bool) (float64, *Space) {
		src := New(vclock.NewReal())
		log := &captureSink{}
		if err := src.AttachJournal(NewJournalSink(log)); err != nil {
			t.Fatal(err)
		}
		pairs := memoPairWarmup + memoPairRuns + 1 // AllocsPerRun runs once more
		for i := 1; i <= pairs; i++ {
			tk := OpToken{}
			if tokened {
				tk = tok("c", uint64(i))
			}
			pair(src, tk)
		}
		if len(log.recs) != 2*pairs {
			t.Fatalf("%d pairs journaled %d records, want a write and a remove each", pairs, len(log.recs))
		}
		dst := New(vclock.NewReal())
		if err := dst.AttachJournal(NewJournalSink(discardSink{})); err != nil {
			t.Fatal(err)
		}
		dst.SetMemoBounds(memoPairBound, memoPairBound)
		a := NewApplier(dst)
		recs := log.recs
		apply := func() {
			for _, rec := range recs[:2] {
				if err := a.Apply(rec); err != nil {
					t.Fatal(err)
				}
			}
			recs = recs[2:]
		}
		for i := 0; i < memoPairWarmup; i++ {
			apply()
		}
		return testing.AllocsPerRun(memoPairRuns, apply), dst
	}
	for _, side := range []struct {
		name string
		run  func(tokened bool) (float64, *Space)
	}{{"primary", primary}, {"standby", standby}} {
		plain, _ := side.run(false)
		tokened, s := side.run(true)
		t.Logf("%s: %.2f allocations per write+take pair untokened, %.2f tokened", side.name, plain, tokened)
		if tokened > plain {
			t.Errorf("%s: a tokened write+take pair allocates %.2f times, the untokened pair %.2f: the memo allocates", side.name, tokened, plain)
		}
		if size, _, evicted := s.MemoStats(); size != memoPairBound || evicted == 0 {
			t.Errorf("%s: memo table holds %d rows after %d evictions, want %d rows at its bound", side.name, size, evicted, memoPairBound)
		}
	}
}
