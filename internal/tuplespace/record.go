package tuplespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gospaces/internal/enc"
)

// A record is one durable mutation: what the journal hands its sink, what a
// WAL segment and a snapshot hold, what a primary ships to its standby.
// Every record reads alone — it defines the entry types it uses — so any
// segment, snapshot or shipped batch can be the first thing a reader sees.
//
//	byte     recordV1
//	byte     kind (low nibble) | flagToken | flagExpiry
//	uvarint  n, then n × uvarint: the entry identities the record names
//	varint   expiry: Unix seconds, uvarint nanoseconds  flagExpiry (write)
//	bytes    token client, uvarint token sequence       flagToken
//	byte     memo op, bytes memo key                    flagToken, not on a write
//	uvarint  n, then n × (uint32le length, enc message): the entries
//
// "bytes" is a uvarint length and that many bytes; every varint is in its
// shortest form, so a record has one encoding. What each kind carries:
//
//	write   one identity, the expiry when the lease is finite, one entry;
//	        tokened when the write was: the receiver memoizes the write
//	        under the token (op and key follow from the entry).
//	remove  the identities a take, take-all, lease cancel or committed
//	        transaction consumed. A tokened op's is the whole op: token,
//	        op, the key its retry routes by, and the entries it returned.
//	evict   identities that left because their key range moved to another
//	        shard (EvictWhere), not because anything consumed them; never
//	        tokened. Recovery and a standby treat it as a remove — the
//	        entry is gone from this space either way; a migration's applier
//	        takes it as the source letting the entry go, and reveals the
//	        staged copy on the destination (see Applier.SetFilter).
//	memo    a token's outcome with no mutation beside it: a commit or abort
//	        marker, or a memo table row in a snapshot — then with the
//	        identity of the entry a write memo's lease names, or the
//	        entries a take memo answers with.
type record struct {
	kind    recordKind
	seqs    []uint64
	expiry  time.Time // zero: the lease is forever
	tok     OpToken   // zero: not the record of a tokened op
	memoOp  string    // one of the Memo* constants
	key     string    // the index key the memoized op's retry routes by
	entries []Entry
	// msgs holds a non-write record's entry messages, undecoded, when its
	// reader asked for that (see decode); they alias the payload.
	msgs [][]byte
}

// memo returns the op and key a tokened record memoizes under its token,
// without what the op answers with (see answerRecord); a write's follow
// from its entry. Zero for a record without a token.
func (r *record) memo() memoRec {
	switch {
	case r.tok.Zero():
		return memoRec{}
	case r.kind == recWrite:
		key, _, _ := IndexKey(r.entries[0])
		return memoRec{op: MemoWrite, key: key}
	}
	return memoRec{op: r.memoOp, key: r.key}
}

type recordKind byte

const (
	recWrite recordKind = iota + 1
	recRemove
	recEvict
	recMemo
)

const (
	// recordV1 is outside the range a gob stream can start with (a length
	// below 0x80, or a negated byte count 0xF8–0xFF), so a record from
	// before this format is told apart by its first byte.
	recordV1 = 0x81

	kindMask   = 0x0f
	flagToken  = 0x10
	flagExpiry = 0x20
)

// ErrRecordFormat rejects a record that does not start with a format byte
// this build writes: a gob record from a build before the binary format, or
// bytes that were never a record. Nothing of it is applied.
var ErrRecordFormat = errors.New("tuplespace: unknown record format")

// memoOps numbers the Memo* constants for the record's op byte.
var memoOps = [...]string{1: MemoWrite, MemoTake, MemoTakeAll, MemoCommit, MemoAbort, MemoCancel}

// memoOpByte returns op's number, 0 for no Memo* constant.
func memoOpByte(op string) byte {
	for i, name := range memoOps {
		if name == op && i > 0 {
			return byte(i)
		}
	}
	return 0
}

// recordCodec is the reusable state of one encode or decode: the codec pair
// is reset per record, so its type tables never outlive one. The decoder's
// string table does: the records it reads one after another are its
// stream.
type recordCodec struct {
	enc *enc.Encoder
	dec *enc.Decoder
	buf []byte
}

var recordCodecs = sync.Pool{New: func() interface{} {
	return &recordCodec{enc: enc.NewEncoder(), dec: enc.NewDecoder()}
}}

// encodeRecord returns r's bytes in a slice of their own, for a caller
// that keeps them: a snapshot, a migration's batch.
func encodeRecord(r *record) ([]byte, error) {
	c := recordCodecs.Get().(*recordCodec)
	defer recordCodecs.Put(c)
	b, err := c.encode(r)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// encode returns r's bytes in c's buffer: they are c's again at its next
// encode. Nothing of r outlives the call, so a record built on the
// caller's stack stays there.
func (c *recordCodec) encode(r *record) ([]byte, error) {
	c.enc.Reset()
	flags := byte(r.kind)
	if !r.tok.Zero() {
		flags |= flagToken
	}
	if !r.expiry.IsZero() {
		flags |= flagExpiry
	}
	b := append(c.buf[:0], recordV1, flags)
	b = binary.AppendUvarint(b, uint64(len(r.seqs)))
	for _, seq := range r.seqs {
		b = binary.AppendUvarint(b, seq)
	}
	if flags&flagExpiry != 0 {
		b = binary.AppendVarint(b, r.expiry.Unix())
		b = binary.AppendUvarint(b, uint64(r.expiry.Nanosecond()))
	}
	if flags&flagToken != 0 {
		b = appendBytes(b, r.tok.Client)
		b = binary.AppendUvarint(b, r.tok.Seq)
		if r.kind != recWrite {
			op := memoOpByte(r.memoOp)
			if op == 0 {
				// A clone: passing r's own string to Errorf would move
				// every record to the heap.
				return nil, fmt.Errorf("tuplespace: unknown memo op %q", strings.Clone(r.memoOp))
			}
			b = appendBytes(append(b, op), r.key)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.entries)))
	for _, e := range r.entries {
		at := len(b)
		var err error
		if b, err = c.enc.Encode(append(b, 0, 0, 0, 0), e); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	c.buf = b
	return b, nil
}

func appendBytes(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decodeRecord reads one record. Its entries share no memory with payload,
// and belong to the caller alone. Errors wrap ErrRecordFormat, or what
// internal/enc returns for bytes it cannot accept (ErrTruncated, ErrCorrupt,
// ErrFingerprint, ErrUnknownTypeID, *UnregisteredTypeError).
func decodeRecord(payload []byte) (record, error) {
	var r record
	if err := r.decode(payload, nil); err != nil {
		return record{}, err
	}
	return r, nil
}

// decode reads payload into r, as decodeRecord, but into r's own seqs and
// entries arrays when they are large enough: a caller that reuses r keeps
// nothing of them past the next decode without copying it. The entries
// themselves, the memo key and the token are the record's own either way.
// stream, when not nil, is the decoder of the stream payload belongs to
// (an Applier's): its string table gives the token's client, the memo key
// and the entries' strings alike, and a non-write record's entry messages
// are framed but left undecoded in r.msgs, aliasing payload, for a reader
// that may not need them (see decodeMsgs). On an error r holds no record.
func (r *record) decode(payload []byte, stream *enc.Decoder) error {
	r.reset()
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty record", enc.ErrTruncated)
	}
	if payload[0] != recordV1 {
		return fmt.Errorf("%w: first byte %#02x; written by a build before the binary record format (start from an empty -datadir), or not a record", ErrRecordFormat, payload[0])
	}
	dec := stream
	if dec == nil {
		c := recordCodecs.Get().(*recordCodec)
		defer recordCodecs.Put(c)
		dec = c.dec
	}
	dec.Reset()
	p := recordReader{b: payload[1:]}
	flags := p.byte()
	r.kind = recordKind(flags & kindMask)
	if p.err == nil && (flags&^(kindMask|flagToken|flagExpiry) != 0 || r.kind < recWrite || r.kind > recMemo) {
		p.fail(fmt.Errorf("%w: record kind byte %#02x", enc.ErrCorrupt, flags))
	}
	if n := p.count(1); n > 0 {
		if cap(r.seqs) < n {
			r.seqs = make([]uint64, 0, n)
		}
		for ; n > 0; n-- {
			r.seqs = append(r.seqs, p.uvarint())
		}
	}
	if flags&flagExpiry != 0 {
		sec, nsec := p.varint(), p.uvarint()
		if r.expiry = time.Unix(sec, int64(nsec)); nsec >= 1e9 || r.expiry.IsZero() {
			p.fail(fmt.Errorf("%w: expiry %d.%d", enc.ErrCorrupt, sec, nsec))
		}
	}
	if flags&flagToken != 0 {
		if r.tok = (OpToken{Client: dec.Intern(p.bytes()), Seq: p.uvarint()}); r.tok.Zero() {
			p.fail(fmt.Errorf("%w: token without a client", enc.ErrCorrupt))
		}
		if r.kind != recWrite {
			if op := int(p.byte()); op > 0 && op < len(memoOps) {
				r.memoOp = memoOps[op]
			}
			r.key = dec.Intern(p.bytes())
		}
	}
	if n := p.count(4); n > 0 {
		lazy := stream != nil && r.kind != recWrite
		if lazy {
			if cap(r.msgs) < n {
				r.msgs = make([][]byte, 0, n)
			}
		} else if cap(r.entries) < n {
			r.entries = make([]Entry, 0, n)
		}
		for ; n > 0 && p.err == nil; n-- {
			if size := p.take(4); size != nil {
				msg := p.take(int(binary.LittleEndian.Uint32(size)))
				if lazy {
					r.msgs = append(r.msgs, msg)
				} else {
					r.entries = append(r.entries, p.entry(dec, msg))
				}
			}
		}
	}
	if p.err == nil && len(p.b) != 0 {
		p.fail(fmt.Errorf("%w: %d bytes after the record", enc.ErrCorrupt, len(p.b)))
	}
	if p.err == nil {
		p.err = r.shape()
	}
	if p.err != nil {
		r.reset()
		return p.err
	}
	return nil
}

// decodeMsgs decodes the entry messages a lazy decode left in r.msgs into
// a slice of their own, checked as an eager decode checks them, with the
// stream's decoder that framed them.
func (r *record) decodeMsgs(stream *enc.Decoder) ([]Entry, error) {
	stream.Reset()
	var p recordReader
	out := make([]Entry, 0, len(r.msgs))
	for _, msg := range r.msgs {
		out = append(out, p.entry(stream, msg))
	}
	if p.err != nil {
		return nil, p.err
	}
	return out, nil
}

// reset empties r and keeps its arrays; the entries and messages they held
// are let go.
func (r *record) reset() {
	clear(r.entries)
	clear(r.msgs)
	*r = record{seqs: r.seqs[:0], entries: r.entries[:0], msgs: r.msgs[:0]}
}

// entry decodes one entry's message; an entry is a struct.
func (p *recordReader) entry(dec *enc.Decoder, msg []byte) Entry {
	if p.err != nil {
		return nil
	}
	e, err := dec.Decode(msg)
	if err == nil {
		if _, _, serr := infoFor(e); serr != nil {
			err = fmt.Errorf("%w: %v", enc.ErrCorrupt, serr)
		}
	}
	if err != nil {
		p.fail(err)
	}
	return e
}

// shape checks that r's header holds what its kind carries, and nothing an
// encoder would have written differently.
func (r *record) shape() error {
	tokened, entries, bad := !r.tok.Zero(), len(r.entries)+len(r.msgs), ""
	switch {
	case tokened && r.kind != recWrite && r.memoOp == "":
		bad = "unknown memo op"
	case !r.expiry.IsZero() && r.kind != recWrite:
		bad = "expiry outside a write"
	case r.kind == recWrite && (len(r.seqs) != 1 || entries != 1):
		bad = "write without exactly one identity and one entry"
	case r.kind == recRemove && (len(r.seqs) == 0 || entries > 0 && !tokened):
		bad = "remove without an identity, or with entries and no token"
	case r.kind == recEvict && (len(r.seqs) == 0 || tokened || entries > 0):
		bad = "evict with more than identities"
	case r.kind == recMemo && (!tokened || len(r.seqs) > 1):
		bad = "memo without a token, or with several identities"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", enc.ErrCorrupt, bad)
}

// recordReader walks a record's header. The first failure sticks and every
// later read returns zero, so the decoder checks once; every count and
// length it hands out has been checked against the bytes that remain.
type recordReader struct {
	b   []byte
	err error
}

func (p *recordReader) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.b = nil
}

func (p *recordReader) take(n int) []byte {
	if n > len(p.b) {
		p.fail(enc.ErrTruncated)
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

func (p *recordReader) byte() byte {
	if b := p.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (p *recordReader) uvarint() uint64 {
	x, n := binary.Uvarint(p.b)
	switch {
	case n == 0:
		p.fail(enc.ErrTruncated)
	case n < 0:
		p.fail(fmt.Errorf("%w: varint overflows 64 bits", enc.ErrCorrupt))
	case n > 1 && p.b[n-1] == 0:
		p.fail(fmt.Errorf("%w: padded varint", enc.ErrCorrupt))
	default:
		p.b = p.b[n:]
		return x
	}
	return 0
}

func (p *recordReader) varint() int64 {
	ux := p.uvarint() // zigzag, as binary.Varint
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// count reads an element count and refuses one that the remaining bytes
// cannot hold at min bytes an element.
func (p *recordReader) count(min int) int {
	n := p.uvarint()
	if n > uint64(len(p.b)/min) {
		p.fail(fmt.Errorf("%w: %d elements of at least %d bytes in %d", enc.ErrTruncated, n, min, len(p.b)))
		return 0
	}
	return int(n)
}

func (p *recordReader) bytes() []byte { return p.take(p.count(1)) }
