package tuplespace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/metrics"
)

// scriptedSink is an in-memory RecordSink whose Nth append (1-based) can
// be scripted to fail; failOnce=false fails every append from failAt on.
type scriptedSink struct {
	mu       sync.Mutex
	records  [][]byte
	calls    int
	failAt   int
	failOnce bool
}

var errDisk = errors.New("scripted disk failure")

func (s *scriptedSink) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.failAt > 0 && (s.calls == s.failAt || (!s.failOnce && s.calls > s.failAt)) {
		return errDisk
	}
	s.records = append(s.records, append([]byte(nil), p...))
	return nil
}

func (s *scriptedSink) stats() (calls, stored int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, len(s.records)
}

// TestStrictJournalFailsWriteLoudly: a write whose journal append fails
// returns the durability error and the entry is NOT stored — nothing is
// acknowledged that was not logged.
func TestStrictJournalFailsWriteLoudly(t *testing.T) {
	sink := &scriptedSink{failAt: 1, failOnce: true}
	c := metrics.NewCounters()
	s := newRealSpace()
	if err := s.AttachJournal(NewJournalSink(sink).SetCounters(c)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(task{Job: "s"}, nil, Forever); !errors.Is(err, errDisk) {
		t.Fatalf("strict write error = %v, want the disk failure", err)
	}
	if got, _ := s.Count(task{Job: "s"}); got != 0 {
		t.Fatalf("unlogged write acknowledged: count = %d", got)
	}
	if got := c.Get(CounterJournalErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", CounterJournalErrors, got)
	}
	// The failure is transient: the next write succeeds.
	if _, err := s.Write(task{Job: "s"}, nil, Forever); err != nil {
		t.Fatalf("write after transient failure: %v", err)
	}
	if got, _ := s.Count(task{Job: "s"}); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestStrictJournalFailsTakeLoudly: a take whose removal record cannot be
// logged fails, and the entry stays in the space.
func TestStrictJournalFailsTakeLoudly(t *testing.T) {
	sink := &scriptedSink{failAt: 2, failOnce: true} // write ok, remove fails
	s := newRealSpace()
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, task{Job: "s", ID: ip(1)})
	if _, err := s.TakeIfExists(task{Job: "s"}, nil); !errors.Is(err, errDisk) {
		t.Fatalf("strict take error = %v, want the disk failure", err)
	}
	if got, _ := s.Count(task{Job: "s"}); got != 1 {
		t.Fatalf("entry vanished despite unlogged removal: count = %d", got)
	}
	// Retry succeeds once the disk recovers.
	if _, err := s.TakeIfExists(task{Job: "s"}, nil); err != nil {
		t.Fatalf("take after recovery: %v", err)
	}
}

// TestStrictJournalFailsBlockedTakeLoudly covers the waiter handoff path:
// a blocked Take whose removal record fails is woken with the error, and
// the arriving entry remains available.
func TestStrictJournalFailsBlockedTakeLoudly(t *testing.T) {
	sink := &scriptedSink{failAt: 2, failOnce: true} // write ok, handoff remove fails
	s := newRealSpace()
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Take(task{Job: "w"}, nil, 5*time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the taker park
	if _, err := s.Write(task{Job: "w"}, nil, Forever); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := <-done; !errors.Is(err, errDisk) {
		t.Fatalf("blocked take error = %v, want the disk failure", err)
	}
	if got, _ := s.Count(task{Job: "w"}); got != 1 {
		t.Fatalf("entry lost in failed handoff: count = %d", got)
	}
}

// unregEntry is deliberately never passed to RegisterType.
type unregEntry struct {
	Name string
}

// TestUnregisteredTypeReturnsTypedError: journaling an entry whose type
// was never registered used to surface as an opaque gob string; now it is
// a typed *enc.UnregisteredTypeError naming the offender.
func TestUnregisteredTypeReturnsTypedError(t *testing.T) {
	sink := &scriptedSink{}
	s := newRealSpace()
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	if !enc.IsRegistered(unregEntry{}) { // else a later -count pass: registration is process-wide
		_, err := s.Write(unregEntry{Name: "x"}, nil, Forever)
		var ute *enc.UnregisteredTypeError
		if !errors.As(err, &ute) {
			t.Fatalf("error = %v (%T), want *enc.UnregisteredTypeError", err, err)
		}
		if ute.Type != "tuplespace.unregEntry" {
			t.Fatalf("error names type %q, want tuplespace.unregEntry", ute.Type)
		}
	}
	// Registering the type fixes it.
	enc.RegisterType(unregEntry{})
	if _, err := s.Write(unregEntry{Name: "x"}, nil, Forever); err != nil {
		t.Fatalf("write after RegisterType: %v", err)
	}
}
