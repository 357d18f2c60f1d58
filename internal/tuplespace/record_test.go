package tuplespace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

// doc is the record tests' entry type: keyed, so its memos carry a routing
// key.
type doc struct {
	Key  string `space:"index"`
	ID   int
	Body []byte
}

func init() { enc.RegisterType(doc{}) }

// legacyOp is journalOp as the last gob build wrote it, field for field.
type legacyOp struct {
	Kind        string
	Seq         uint64
	Entry       interface{}
	Expiry      time.Time
	Tok         OpToken
	MemoOp      string
	MemoKey     string
	MemoKeyed   bool
	MemoEntries []Entry
}

func legacyRecord(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacyOp{Kind: "write", Seq: 7, Entry: task{Job: "old", ID: ip(1)}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type namedRecord struct {
	name string
	rec  record
}

// recordSeeds is one record of every shape the journal writes: each kind,
// tokened and not, a multi-entry take-all, and a second entry type — the
// task of write_gob_fallback, named for the codec's gob mode it took until
// RegisterType began refusing what no plan carries. The fuzz corpora under
// testdata/fuzz are these, encoded.
func recordSeeds() []namedRecord {
	d := func(id int) Entry { return doc{Key: "k" + strconv.Itoa(id), ID: id, Body: []byte{byte(id), 2, 3}} }
	tk := OpToken{Client: "c1", Seq: 9}
	one := []uint64{5}
	return []namedRecord{
		{"write", record{kind: recWrite, seqs: one, entries: []Entry{d(1)}}},
		{"write_tokened_leased", record{kind: recWrite, seqs: one, tok: tk, expiry: time.Unix(1_700_000_000, 42), entries: []Entry{d(1)}}},
		{"write_gob_fallback", record{kind: recWrite, seqs: one, entries: []Entry{task{Job: "gob", ID: ip(3), Data: []float64{1.5}}}}},
		{"remove", record{kind: recRemove, seqs: one}},
		{"remove_take_tokened", record{kind: recRemove, seqs: one, tok: tk, memoOp: MemoTake, key: "k1", entries: []Entry{d(1)}}},
		{"remove_takeall_tokened", record{kind: recRemove, seqs: []uint64{5, 6, 300}, tok: tk, memoOp: MemoTakeAll, entries: []Entry{d(1), d(2), d(3)}}},
		{"remove_cancel_tokened", record{kind: recRemove, seqs: one, tok: tk, memoOp: MemoCancel, key: "k1"}},
		{"evict", record{kind: recEvict, seqs: []uint64{5, 6}}},
		{"memo_commit", record{kind: recMemo, tok: tk, memoOp: MemoCommit}},
		{"memo_write_bound", record{kind: recMemo, seqs: one, tok: tk, memoOp: MemoWrite, key: "k1"}},
		{"memo_take", record{kind: recMemo, tok: tk, memoOp: MemoTake, key: "k1", entries: []Entry{d(1)}}},
	}
}

func mustEncode(t testing.TB, r record) []byte {
	t.Helper()
	b, err := encodeRecord(&r)
	if err != nil {
		t.Fatalf("encode %+v: %v", r, err)
	}
	return b
}

// TestRecordRoundTrip: every shape decodes to what was encoded and encodes
// again to the same bytes, a write of a 64-byte payload stays inside the
// roadmap's 140 bytes, and a header is as small as its fields.
func TestRecordRoundTrip(t *testing.T) {
	for _, s := range recordSeeds() {
		b := mustEncode(t, s.rec)
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, s.rec) {
			t.Errorf("%s: decoded\n %+v\nwant\n %+v", s.name, got, s.rec)
		}
		if again := mustEncode(t, got); !bytes.Equal(again, b) {
			t.Errorf("%s: re-encoded to other bytes:\n %x\n %x", s.name, again, b)
		}
	}
	if b := mustEncode(t, record{kind: recRemove, seqs: []uint64{5}}); len(b) != 5 {
		t.Errorf("an untokened remove is %d bytes, want 5", len(b))
	}
	w := mustEncode(t, record{kind: recWrite, seqs: []uint64{70000}, entries: []Entry{doc{Key: "job-0123", ID: 70000, Body: make([]byte, 64)}}})
	if len(w) > 140 {
		t.Errorf("a write of a 64-byte payload is %d bytes, want at most 140", len(w))
	}
}

// TestRecordDecodeErrorsAreTyped: every way a record can be wrong is one of
// the typed errors, by name.
func TestRecordDecodeErrorsAreTyped(t *testing.T) {
	take := mustEncode(t, recordSeeds()[4].rec)
	write := mustEncode(t, recordSeeds()[0].rec)
	flip := func(b []byte, at int, to byte) []byte {
		out := append([]byte(nil), b...)
		out[at] = to
		return out
	}
	for name, tc := range map[string]struct {
		b    []byte
		want error
	}{
		"empty":                    {nil, enc.ErrTruncated},
		"format byte alone":        {[]byte{recordV1}, enc.ErrTruncated},
		"unknown format":           {flip(write, 0, 0x82), ErrRecordFormat},
		"legacy gob record":        {legacyRecord(t), ErrRecordFormat},
		"text":                     {[]byte("not a journal"), ErrRecordFormat},
		"kind 0":                   {flip(write, 1, 0), enc.ErrCorrupt},
		"kind 9":                   {flip(write, 1, 9), enc.ErrCorrupt},
		"unknown flag":             {flip(write, 1, byte(recWrite)|0x40), enc.ErrCorrupt},
		"expiry on a remove":       {[]byte{recordV1, byte(recRemove) | flagExpiry, 1, 5, 2, 0, 0}, enc.ErrCorrupt},
		"padded varint":            {[]byte{recordV1, byte(recRemove), 0x81, 0x00, 5, 0}, enc.ErrCorrupt},
		"count beyond the bytes":   {[]byte{recordV1, byte(recRemove), 0x7f, 5, 0}, enc.ErrTruncated},
		"entries beyond the bytes": {[]byte{recordV1, byte(recRemove), 1, 5, 0x7f}, enc.ErrTruncated},
		"remove naming nothing":    {[]byte{recordV1, byte(recRemove), 0, 0}, enc.ErrCorrupt},
		"write without an entry":   {[]byte{recordV1, byte(recWrite), 1, 5, 0}, enc.ErrCorrupt},
		"memo without a token":     {[]byte{recordV1, byte(recMemo), 0, 0}, enc.ErrCorrupt},
		"token without a client":   {[]byte{recordV1, byte(recMemo) | flagToken, 0, 0, 9, 4, 0, 0}, enc.ErrCorrupt},
		"unknown memo op":          {[]byte{recordV1, byte(recMemo) | flagToken, 0, 1, 'c', 9, 77, 0, 0}, enc.ErrCorrupt},
		"trailing byte":            {append(append([]byte(nil), take...), 0), enc.ErrCorrupt},
		"entry length too long":    {flip(write, 5, 0xff), enc.ErrTruncated},
		"entry cut short":          {write[:len(write)-1], enc.ErrTruncated},
	} {
		if _, err := decodeRecord(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
	}
	// A layout that differs from the writer's is its own error.
	other := flip(write, bytes.Index(write, []byte("tuplespace.doc"))+len("tuplespace.doc"), 0xee)
	if _, err := decodeRecord(other); !errors.Is(err, enc.ErrFingerprint) {
		t.Errorf("changed fingerprint: error %v, want enc.ErrFingerprint", err)
	}
}

// corpusFile renders one []byte fuzz input in the go test corpus format.
func corpusFile(b []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n")
}

// TestRecordCorpusIsCurrent: the committed seed corpora are what this build
// encodes, so a format change regenerates them in the same commit
// (UPDATE_RECORD_CORPUS=1 go test -run TestRecordCorpusIsCurrent).
func TestRecordCorpusIsCurrent(t *testing.T) {
	files := map[string][]byte{}
	var stream []byte
	for _, s := range recordSeeds() {
		b := mustEncode(t, s.rec)
		files[filepath.Join("FuzzDecodeRecord", s.name)] = corpusFile(b)
		stream = appendFramed(stream, b)
	}
	files[filepath.Join("FuzzReplayRecords", "every_kind")] = corpusFile(stream)
	for name, want := range files {
		path := filepath.Join("testdata", "fuzz", name)
		if os.Getenv("UPDATE_RECORD_CORPUS") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s is not what this build encodes (%v): regenerate with UPDATE_RECORD_CORPUS=1", path, err)
		}
	}
	// The gob-era record is committed once: gob numbers types per process.
	path := filepath.Join("testdata", "fuzz", "FuzzDecodeRecord", "legacy_gob_record")
	if _, err := os.Stat(path); err != nil && os.Getenv("UPDATE_RECORD_CORPUS") != "" {
		if err := os.WriteFile(path, corpusFile(legacyRecord(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

// typedRecordError reports whether err is one a record decode may return.
func typedRecordError(err error) bool {
	var unreg *enc.UnregisteredTypeError
	for _, want := range []error{ErrRecordFormat, enc.ErrTruncated, enc.ErrCorrupt, enc.ErrFingerprint, enc.ErrUnknownTypeID} {
		if errors.Is(err, want) {
			return true
		}
	}
	return errors.As(err, &unreg)
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder — what reads
// a WAL segment, a snapshot and a replica batch. It must not panic, must
// not allocate from a length the input does not back, and must fail with a
// typed error. What it accepts it must understand: the decoded record
// encodes, that encoding decodes and encodes to the same bytes again (the
// first pass may differ from the input only inside an entry body, where the
// codec reads a padded varint), and a record that is all header is its one
// encoding.
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range recordSeeds() {
		b := mustEncode(f, s.rec)
		f.Add(b)
		for cut := 0; cut < len(b); cut++ {
			f.Add(b[:cut])
		}
	}
	legacy := legacyRecord(f) // and every cut of a gob-era record
	for cut := 1; cut <= len(legacy); cut++ {
		f.Add(legacy[:cut])
	}
	f.Add([]byte{recordV1, byte(recRemove), 1, 5, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 entries in no bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err != nil {
			if !typedRecordError(err) {
				t.Fatalf("untyped error %v (%T)", err, err)
			}
			return
		}
		if cap(r.seqs) > len(data) || cap(r.entries) > len(data) {
			t.Fatalf("%d input bytes, room for %d identities and %d entries", len(data), cap(r.seqs), cap(r.entries))
		}
		b1, err := encodeRecord(&r)
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", r, err)
		}
		if len(r.entries) == 0 && !bytes.Equal(b1, data) {
			t.Fatalf("a header has two encodings:\n %x\n %x", data, b1)
		}
		r2, err := decodeRecord(b1)
		if err != nil {
			t.Fatalf("own encoding of %+v does not decode: %v", r, err)
		}
		if b2 := mustEncode(t, r2); !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", b1, b2)
		}
	})
}

// appendFramed appends rec to a stream of records, each behind a two-byte
// length: the one input FuzzReplayRecords splits.
func appendFramed(stream, rec []byte) []byte {
	return append(binary.LittleEndian.AppendUint16(stream, uint16(len(rec))), rec...)
}

// FuzzReplayRecords feeds an arbitrary record stream to the one record
// reader in its three modes: a standby's Applier, a migration's, and
// recovery (ReplayRecords, an Applier behind a decode-all gate). None may
// panic; a stream recovery accepts must snapshot and recover to the same
// contents.
func FuzzReplayRecords(f *testing.F) {
	var all []byte
	for _, s := range recordSeeds() {
		all = appendFramed(all, mustEncode(f, s.rec))
	}
	f.Add(all)
	f.Add(all[:len(all)/2])
	f.Add(appendFramed(nil, legacyRecord(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var records [][]byte
		for len(data) >= 2 {
			n := int(binary.LittleEndian.Uint16(data))
			if data = data[2:]; n > len(data) {
				n = len(data)
			}
			records, data = append(records, data[:n]), data[n:]
		}
		clk := vclock.NewVirtual(time.Unix(1_600_000_000, 0))
		for _, migrating := range []bool{false, true} {
			a := NewApplier(New(clk))
			if migrating {
				a.SetFilter(func(e Entry) bool { k, _, _ := IndexKey(e); return k == "k1" })
				a.SetMemoFilter(func(key string, keyed bool) bool { return !keyed || key == "k1" })
			}
			for _, rec := range records {
				_ = a.Apply(rec)
			}
		}
		s := New(clk)
		n, err := ReplayRecords(records, s)
		if err != nil {
			if !typedRecordError(err) {
				t.Fatalf("untyped error %v (%T)", err, err)
			}
			if got := s.Stats().EntriesLive; got != 0 {
				t.Fatalf("a rejected stream left %d entries behind", got)
			}
			return
		}
		snap, err := s.EncodeState()
		if err != nil {
			t.Fatalf("recovered state does not snapshot: %v", err)
		}
		s2 := New(clk)
		if n2, err := ReplayRecords(snap, s2); err != nil || n2 != n || !reflect.DeepEqual(s.TypeCounts(), s2.TypeCounts()) {
			t.Fatalf("recovered %d entries %v, its snapshot recovers %d %v (%v)", n, s.TypeCounts(), n2, s2.TypeCounts(), err)
		}
		size, _, _ := s.MemoStats()
		if size2, _, _ := s2.MemoStats(); size2 != size {
			t.Fatalf("recovered %d memos, its snapshot recovers %d", size, size2)
		}
	})
}

// TestOneRecordPerTokenedOp: every tokened operation is one record in the
// journal — the mutation and its memo cannot be separated by a tear because
// nothing lies between them.
func TestOneRecordPerTokenedOp(t *testing.T) {
	s := newRealSpace()
	sink := &captureSink{}
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	step := func(what string, want recordKind, fn func()) record {
		t.Helper()
		before := len(sink.recs)
		fn()
		if got := len(sink.recs) - before; got != 1 {
			t.Fatalf("%s appended %d records, want 1", what, got)
		}
		r, err := decodeRecord(sink.recs[before])
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if r.kind != want || r.tok.Zero() {
			t.Fatalf("%s: record kind %d token %v, want kind %d with the op's token", what, r.kind, r.tok, want)
		}
		return r
	}
	var lease EntryLease
	step("WriteTok", recWrite, func() {
		var err error
		if lease, err = s.WriteTok(doc{Key: "a", ID: 1}, nil, Forever, tok("c", 1)); err != nil {
			t.Fatal(err)
		}
	})
	r := step("TakeTok hit", recRemove, func() {
		if _, err := s.TakeTok(doc{Key: "a"}, nil, time.Second, tok("c", 2)); err != nil {
			t.Fatal(err)
		}
	})
	if r.memoOp != MemoTake || r.key != "a" || len(r.entries) != 1 || r.entries[0].(doc).ID != 1 || r.seqs[0] != lease.Seq() {
		t.Fatalf("take record %+v", r)
	}

	// Parked, then satisfied by a write: the write's record, then the take's.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.TakeTok(doc{Key: "p"}, nil, 5*time.Second, tok("c", 3)); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "the taker to park", func() bool { return s.Stats().Waiting == 1 })
	before := len(sink.recs)
	mustWrite(t, s, doc{Key: "p", ID: 2})
	<-done
	if got := len(sink.recs) - before; got != 2 {
		t.Fatalf("a write handed to a parked tokened take appended %d records, want 2", got)
	}
	if r, err := decodeRecord(sink.recs[before+1]); err != nil || r.kind != recRemove || r.tok != tok("c", 3) || len(r.entries) != 1 {
		t.Fatalf("parked take's record %+v, %v", r, err)
	}

	const k = 5
	for i := 0; i < k; i++ {
		mustWrite(t, s, doc{Key: "all", ID: 10 + i})
	}
	r = step("TakeAllTok", recRemove, func() {
		if got, err := s.TakeAllTok(doc{Key: "all"}, nil, 0, tok("c", 4)); err != nil || len(got) != k {
			t.Fatalf("took %d, %v", len(got), err)
		}
	})
	if r.memoOp != MemoTakeAll || len(r.seqs) != k || len(r.entries) != k {
		t.Fatalf("take-all record names %d identities and %d entries, want %d of each", len(r.seqs), len(r.entries), k)
	}

	l, err := s.Write(doc{Key: "c", ID: 3}, nil, Forever)
	if err != nil {
		t.Fatal(err)
	}
	r = step("CancelTok", recRemove, func() {
		if err := l.CancelTok(tok("c", 5)); err != nil {
			t.Fatal(err)
		}
	})
	if r.memoOp != MemoCancel || r.key != "c" || len(r.entries) != 0 {
		t.Fatalf("cancel record %+v", r)
	}
	step("a bare commit memo", recMemo, func() { _ = s.Commit(s.Begin(0), tok("c", 6)) })

	// And each of them is answered from its memo, journaling nothing more.
	before = len(sink.recs)
	if l2, err := s.WriteTok(doc{Key: "a", ID: 1}, nil, Forever, tok("c", 1)); err != nil || l2.Seq() != lease.Seq() {
		t.Fatalf("write retry: %v", err)
	}
	if e, err := s.TakeTok(doc{Key: "a"}, nil, time.Second, tok("c", 2)); err != nil || e.(doc).ID != 1 {
		t.Fatalf("take retry: %v, %v", e, err)
	}
	if got, err := s.TakeAllTok(doc{Key: "all"}, nil, 0, tok("c", 4)); err != nil || len(got) != k {
		t.Fatalf("take-all retry: %d, %v", len(got), err)
	}
	if err := l.CancelTok(tok("c", 5)); err != nil {
		t.Fatalf("cancel retry: %v", err)
	}
	if len(sink.recs) != before {
		t.Fatalf("retries appended %d records", len(sink.recs)-before)
	}
}

// TestLegacyGobRecordsAreRefused: a gob-era record among good ones — an old
// WAL, or a replica peer on an old build — fails recovery and apply alike
// with ErrRecordFormat naming the record, and nothing of the stream lands.
func TestLegacyGobRecordsAreRefused(t *testing.T) {
	good := mustEncode(t, recordSeeds()[0].rec)
	s := newRealSpace()
	_, err := ReplayRecords([][]byte{good, legacyRecord(t)}, s)
	if !errors.Is(err, ErrRecordFormat) || !bytes.Contains([]byte(err.Error()), []byte("record 1")) {
		t.Fatalf("replay: %v, want ErrRecordFormat at record 1", err)
	}
	if n := s.Stats().EntriesLive; n != 0 {
		t.Fatalf("a refused replay left %d entries", n)
	}
	if err := NewApplier(s).Apply(legacyRecord(t)); !errors.Is(err, ErrRecordFormat) {
		t.Fatalf("apply: %v, want ErrRecordFormat", err)
	}
}
