package tuplespace

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"gospaces/internal/vclock"
)

// numbered is a 1 KiB keyed entry whose payload says which it is.
func numbered(n int) paddedDoc {
	d := padded("k", n)
	d.Pad[0] = byte(n)
	return d
}

// TestStandbyMemoAnswersWithHeldEntries: a standby that still holds every
// entry a tokened take or take-all removed memoizes the op with those
// stored values — the payload it already holds, not a second decode of the
// remove record's copy — and the memo is what the primary's caller got.
// In mirror mode and in migration (SetFilter) mode.
func TestStandbyMemoAnswersWithHeldEntries(t *testing.T) {
	for _, migration := range []bool{false, true} {
		name := "mirror"
		if migration {
			name = "migration"
		}
		t.Run(name, func(t *testing.T) {
			clk := vclock.NewReal()
			src := New(clk)
			log := &captureSink{}
			if err := src.AttachJournal(NewJournalSink(log)); err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 3; n++ {
				if _, err := src.Write(numbered(n), nil, Forever); err != nil {
					t.Fatal(err)
				}
			}
			took, err := src.TakeTok(paddedDoc{Key: "k", N: 1}, nil, 0, tok("c", 1))
			if err != nil {
				t.Fatal(err)
			}
			all, err := src.TakeAllTok(paddedDoc{Key: "k"}, nil, 0, tok("c", 2))
			if err != nil || len(all) != 2 {
				t.Fatalf("take-all = %d entries, %v; want 2", len(all), err)
			}

			dst := New(clk)
			a := NewApplier(dst)
			held := dst.bySeq
			if migration {
				a.SetFilter(func(Entry) bool { return true })
				held = a.copies
			}
			apply := func(recs [][]byte) {
				t.Helper()
				for i, rec := range recs {
					if err := a.Apply(rec); err != nil {
						t.Fatalf("apply record %d: %v", i, err)
					}
				}
			}
			apply(log.recs[:3]) // the writes: note where each payload lives
			payloads := map[int]*byte{}
			for _, se := range held {
				d := se.entry().(paddedDoc)
				payloads[d.N] = unsafe.SliceData(d.Pad)
			}
			apply(log.recs[3:]) // the take's and the take-all's removes

			for _, c := range []struct {
				tok  OpToken
				want []Entry
			}{{tok("c", 1), []Entry{took}}, {tok("c", 2), all}} {
				rec, ok := dst.memos.recs[c.tok]
				if !ok {
					t.Fatalf("the standby holds no memo for %s", c.tok)
				}
				if !reflect.DeepEqual(rec.entriesIn(nil), c.want) {
					t.Fatalf("memo %s = %v, want what the primary returned, %v", c.tok, rec.entriesIn(nil), c.want)
				}
				if p, ok := src.memos.recs[c.tok]; !ok || !reflect.DeepEqual(p.entriesIn(nil), rec.entriesIn(nil)) {
					t.Fatalf("memo %s differs from the primary's", c.tok)
				}
				for _, e := range rec.entriesIn(nil) {
					d := e.(paddedDoc)
					if unsafe.SliceData(d.Pad) != payloads[d.N] {
						t.Fatalf("memo %s: entry %d is a second copy, not the one the standby held", c.tok, d.N)
					}
				}
			}
			if n := dst.Stats().EntriesLive; n != 0 {
				t.Fatalf("the standby holds %d entries, want none", n)
			}
		})
	}
}

// TestStandbyMemoDecodesWhatItNoLongerHolds: a standby that no longer
// holds the entry a tokened take removed — it expired there first, or the
// remove record is a duplicate after a resync overlap — memoizes the take
// with the entry the record carries, and after promotion a retried take
// with the same token returns the original entry.
func TestStandbyMemoDecodesWhatItNoLongerHolds(t *testing.T) {
	start := time.Unix(1_600_000_000, 0)
	for _, c := range []struct {
		name    string
		standby time.Time // the standby's clock; the primary's reads start
		again   bool      // the remove record arrives a second time
	}{
		{"expired here first", start.Add(time.Hour), false},
		{"duplicate after resync", start, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := New(vclock.NewVirtual(start))
			log := &captureSink{}
			if err := src.AttachJournal(NewJournalSink(log)); err != nil {
				t.Fatal(err)
			}
			if _, err := src.Write(numbered(7), nil, time.Minute); err != nil {
				t.Fatal(err)
			}
			took, err := src.TakeTok(paddedDoc{Key: "k"}, nil, 0, tok("c", 1))
			if err != nil {
				t.Fatal(err)
			}
			recs := log.recs
			if c.again {
				recs = append(recs, recs[len(recs)-1])
			}

			dst := New(vclock.NewVirtual(c.standby))
			a := NewApplier(dst)
			for i, rec := range recs {
				if err := a.Apply(rec); err != nil {
					t.Fatalf("apply record %d: %v", i, err)
				}
			}
			if rec, ok := dst.memos.recs[tok("c", 1)]; !ok || !reflect.DeepEqual(rec.entriesIn(nil), []Entry{took}) {
				t.Fatalf("the standby's memo = %+v, want the entry the primary returned", rec)
			}
			// Promoted, the standby answers the retry from its memo.
			got, err := dst.Lookup(true, false, paddedDoc{Key: "k"}, nil, 0, tok("c", 1))
			if err != nil || !reflect.DeepEqual(got, took) {
				t.Fatalf("retried take = %v, %v; want the original entry", got, err)
			}
		})
	}
}
