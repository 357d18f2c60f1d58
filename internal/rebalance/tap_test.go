package rebalance

import (
	"errors"
	"fmt"
	"testing"

	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// sink records appended payloads in order.
type sink struct{ recs []string }

func (s *sink) Append(p []byte) error {
	s.recs = append(s.recs, string(p))
	return nil
}

func TestTapOffIsPassThrough(t *testing.T) {
	down := &sink{}
	tap := NewTap(down)
	if err := tap.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if len(down.recs) != 1 || down.recs[0] != "a" {
		t.Fatalf("downstream = %v", down.recs)
	}
	// Nil downstream is the unreplicated non-durable shard: still fine.
	if err := NewTap(nil).Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
}

// TestTapBufferThenLiveOrdering: records buffered before GoLive drain
// first and in order, then live forwarding takes over seamlessly — the
// property the snapshot/delta overlap depends on.
func TestTapBufferThenLiveOrdering(t *testing.T) {
	down := &sink{}
	tap := NewTap(down)
	tap.StartBuffer()
	for i := 0; i < 3; i++ {
		if err := tap.Append([]byte(fmt.Sprintf("buf-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := &sink{}
	if err := tap.GoLive(got.Append); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tap.Append([]byte(fmt.Sprintf("live-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"buf-0", "buf-1", "buf-2", "live-0", "live-1"}
	if len(got.recs) != len(want) {
		t.Fatalf("forwarded %v, want %v", got.recs, want)
	}
	for i := range want {
		if got.recs[i] != want[i] {
			t.Fatalf("forwarded %v, want %v", got.recs, want)
		}
	}
	// Downstream saw everything regardless of mode.
	if len(down.recs) != 5 {
		t.Fatalf("downstream saw %d records, want 5", len(down.recs))
	}
	// Close stops forwarding; downstream still sees appends.
	tap.Close()
	if err := tap.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if len(got.recs) != 5 {
		t.Fatalf("closed tap still forwarded: %v", got.recs)
	}
	if len(down.recs) != 6 {
		t.Fatalf("downstream saw %d records after close, want 6", len(down.recs))
	}
}

// TestTapForwardErrorNeverFailsSource: a migration-side failure is
// retained for the migration to observe but must not surface to the
// journaling source op.
func TestTapForwardErrorNeverFailsSource(t *testing.T) {
	tap := NewTap(nil)
	tap.StartBuffer()
	boom := errors.New("child apply failed")
	if err := tap.GoLive(func([]byte) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := tap.Append([]byte("x")); err != nil {
		t.Fatalf("source op failed through the tap: %v", err)
	}
	if !errors.Is(tap.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", tap.Err(), boom)
	}
	// StartBuffer (a fresh migration attempt) clears the sticky error.
	tap.StartBuffer()
	if tap.Err() != nil {
		t.Fatalf("Err() = %v after StartBuffer, want nil", tap.Err())
	}
}

// idleSink is a downstream with nowhere to put a record.
type idleSink struct{ sink }

func (idleSink) Dropping() bool { return true }

// TestTapDropping: an off tap over nothing, or over a downstream that is
// itself dropping, tells the journal not to encode; a tap a migration has
// switched on, or one over a downstream that keeps records, never does.
func TestTapDropping(t *testing.T) {
	if !NewTap(nil).Dropping() {
		t.Fatal("an off tap over nothing wants records")
	}
	if NewTap(&sink{}).Dropping() {
		t.Fatal("a tap over a sink that keeps records drops them")
	}
	tap := NewTap(&idleSink{})
	if !tap.Dropping() {
		t.Fatal("an off tap over a dropping downstream wants records")
	}
	tap.StartBuffer()
	if tap.Dropping() {
		t.Fatal("a buffering tap drops records")
	}
	if err := tap.GoLive(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tap.Dropping() {
		t.Fatal("a live tap drops records")
	}
	tap.Close()
	if !tap.Dropping() {
		t.Fatal("a closed tap over a dropping downstream wants records")
	}
}

// TestTapCopiesBorrowedPayloads: a journal lends each record to its sink
// for the Append call only, then encodes the next one into the same
// buffer. A buffering tap keeps copies, and a live tap applies each record
// before Append returns, so records appended from one overwritten buffer —
// in buffer mode and in live mode — reach the migration's destination as
// they were.
func TestTapCopiesBorrowedPayloads(t *testing.T) {
	src := tuplespace.New(vclock.NewReal())
	made := &sink{}
	if err := src.AttachJournal(tuplespace.NewJournalSink(made)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := src.Write(kv{Key: fmt.Sprintf("k%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	dst := tuplespace.New(vclock.NewReal())
	tap := NewTap(&sink{})
	var buf []byte
	appendBorrowed := func(rec string) {
		buf = append(buf[:0], rec...)
		if err := tap.Append(buf); err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xff
		}
	}
	tap.StartBuffer()
	for _, rec := range made.recs[:3] {
		appendBorrowed(rec)
	}
	if err := tap.GoLive(tuplespace.NewApplier(dst).Apply); err != nil {
		t.Fatalf("draining the buffered records: %v", err)
	}
	for _, rec := range made.recs[3:] {
		appendBorrowed(rec)
	}
	if err := tap.Err(); err != nil {
		t.Fatalf("live forward: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := dst.ReadIfExists(kv{Key: fmt.Sprintf("k%d", i), Val: i}, nil); err != nil {
			t.Fatalf("destination lacks record %d's entry: %v", i, err)
		}
	}
}
