package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"gospaces/internal/enc"
)

// Op priority classes carried on the RPC frame. Under brownout the server
// sheds the lowest class first, so diagnostics degrade before reads and
// reads before the mutations that carry the actual work.
const (
	// PriLow marks diagnostic traffic: counts, type censuses, bulk scans.
	PriLow = 0
	// PriNormal marks read-path traffic.
	PriNormal = 1
	// PriHigh marks mutations and transaction/lease control — the ops the
	// job cannot make progress without. Never shed by brownout (only the
	// hard admission cap rejects them).
	PriHigh = 2
)

// Framed is what a client passes as its argument when the call carries a
// deadline, and what the server's handler receives: the absolute deadline
// after which the client abandons the call (zero = none) and a priority
// class, beside the real argument. It exists in memory only — on the wire
// the deadline and priority are fields of the frame header and Arg is the
// frame's body, encoded once. Servers unwrap it at admission: an op whose
// deadline has already passed is rejected before execution, and a queued
// op whose service slot would start past the deadline is dropped instead
// of executed into the void. A space.Service takes an op's class from its
// kind, not from Pri, so a space call without a deadline is not framed at
// all.
type Framed struct {
	Deadline time.Time
	Pri      int
	Arg      interface{}
}

func init() {
	RegisterType(Framed{})
}

// Frame wraps arg for the wire. A zero deadline with PriNormal yields the
// arg unchanged — no frame overhead for clients that carry nothing.
func Frame(arg interface{}, deadline time.Time, pri int) interface{} {
	if deadline.IsZero() && pri == PriNormal {
		return arg
	}
	return Framed{Deadline: deadline, Pri: pri, Arg: arg}
}

// Unframe splits a possibly-framed argument into the inner argument, the
// propagated deadline (zero if none) and the priority class (PriNormal if
// unframed).
func Unframe(arg interface{}) (interface{}, time.Time, int) {
	if f, ok := arg.(Framed); ok {
		return f.Arg, f.Deadline, f.Pri
	}
	return arg, time.Time{}, PriNormal
}

// The wire frame, the same in both directions and on both bindings:
//
//	offset size
//	0      4    length of everything after this field, big-endian, ≤ maxFrameBytes
//	4      1    flags: flagResponse, flagFramed, flagDeadline
//	5      1    request: priority class; response: error code (0 = success)
//	6      8    call id, big-endian; a response echoes its request's
//	14     8    request: deadline, Unix nanoseconds, big-endian (if flagDeadline)
//	22     2    request: method length M, big-endian
//	24     M    request: method name
//	24+M   …    body: one enc message (the argument or result, encoded once),
//	            or the error text when the error code is non-zero
const (
	headerBytes = 24

	flagResponse = 1 << 0
	flagFramed   = 1 << 1 // the argument was a Framed: hand the handler one
	flagDeadline = 1 << 2
)

// maxFrameBytes is the largest frame either side will read. The largest
// legitimate message is a replica.syncArgs snapshot of a whole shard — a
// few hundred bytes per resident entry, ~6 MB at the benchmark's 20,000 —
// so 256 MiB leaves room for a shard forty times that. A length prefix
// above it is refused before anything is allocated for the frame, and the
// connection is closed: nothing after a lying prefix can be trusted.
const maxFrameBytes = 1 << 28

// readChunk is how much a reader allocates ahead of the bytes that have
// actually arrived, so a prefix that promises 256 MiB and delivers nothing
// costs 64 KiB, not 256 MiB.
const readChunk = 64 << 10

// ErrFrameTooLarge reports a frame whose length prefix exceeds
// maxFrameBytes, or an argument or result that would encode to one.
var ErrFrameTooLarge = errors.New("transport: frame exceeds the size limit")

// Error codes a response carries so the caller gets back the class of
// failure, not just its text. Code 0 is success and 1 any handler error no
// code names. A code means the same error in every binary built from this
// tree — cmd/master and cmd/worker are separate processes — so every code
// is fixed in the source, never handed out in registration order: the
// protocol's own below 16, then one block for each package above transport
// whose sentinels cross the wire, which it fills with RegisterErrors.
const (
	// SpaceErrors is the first code of the tuplespace sentinels a space
	// Service's handlers return (package space registers them).
	SpaceErrors = 16
	// ReplicaErrors is the first code of the replication sentinels
	// (package replica registers them).
	ReplicaErrors = 32
)

var wireErrors = [256]error{2: ErrNoSuchMethod, 3: enc.ErrTruncated, 4: enc.ErrCorrupt, 5: enc.ErrUnknownTypeID, 6: enc.ErrFingerprint}

// RegisterErrors gives errs the wire codes base, base+1, … in the order
// given. A handler error that wraps one of them reaches the caller as that
// sentinel itself, on either binding, so errors.Is and == hold across the
// wire; an error that merely quotes a sentinel's text is not it. A code is
// its position in the caller's list, so a shipped list only grows at its
// end. RegisterErrors panics on a code outside base's block of 16 or taken
// already; call it from init.
func RegisterErrors(base int, errs ...error) {
	if base < SpaceErrors || base%16 != 0 || len(errs) > 16 || base+len(errs) > len(wireErrors) {
		panic(fmt.Sprintf("transport: RegisterErrors(%d, %d errors): not a block of its own", base, len(errs)))
	}
	for i, err := range errs {
		if wireErrors[base+i] != nil {
			panic(fmt.Sprintf("transport: error code %d registered twice", base+i))
		}
		wireErrors[base+i] = err
	}
}

func errorCode(err error) byte {
	for code := 2; code < len(wireErrors); code++ {
		if wireErrors[code] != nil && errors.Is(err, wireErrors[code]) {
			return byte(code)
		}
	}
	return 1
}

// remoteError rebuilds the error a response's code and text stand for: a
// registered sentinel as itself, anything else as a RemoteError that
// unwraps to the protocol error its code names, if any.
func remoteError(method string, code byte, msg string) error {
	if code >= SpaceErrors && wireErrors[code] != nil {
		return wireErrors[code]
	}
	return &RemoteError{Method: method, Msg: msg, cause: wireErrors[code]}
}

// appendRequest appends one request frame to b: the header, then arg
// encoded once by e. A Framed argument travels as header fields plus its
// inner argument. On error b is returned at its original length.
func appendRequest(b []byte, e *enc.Encoder, id uint64, method string, arg interface{}) ([]byte, error) {
	if len(method) > math.MaxUint16 {
		return b, fmt.Errorf("transport: method name of %d bytes", len(method))
	}
	start := len(b)
	var flags, pri byte
	var deadline int64
	if f, ok := arg.(Framed); ok {
		flags, pri, arg = flagFramed, byte(f.Pri), f.Arg
		// The header holds an instant as int64 nanoseconds: 1678–2262. A
		// deadline past that range is no deadline; one before it has passed.
		switch y := f.Deadline.Year(); {
		case f.Deadline.IsZero() || y > 2261:
		case y < 1679:
			flags, deadline = flags|flagDeadline, math.MinInt64
		default:
			flags, deadline = flags|flagDeadline, f.Deadline.UnixNano()
		}
	}
	b = append(b, 0, 0, 0, 0, flags, pri)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint64(b, uint64(deadline))
	b = binary.BigEndian.AppendUint16(b, uint16(len(method)))
	b = append(b, method...)
	out, err := e.Encode(b, arg)
	if err != nil {
		return b[:start], fmt.Errorf("transport: encode: %w", err)
	}
	return sealFrame(out, e, start)
}

// appendResponse appends the response frame for a call: its result, or
// the code and text of its error. A result that cannot be encoded becomes
// an error response, so a call always gets an answer.
func appendResponse(b []byte, e *enc.Encoder, id uint64, res interface{}, err error) []byte {
	start := len(b)
	header := func(code byte) []byte {
		h := append(b[:start], 0, 0, 0, 0, flagResponse, code)
		h = binary.BigEndian.AppendUint64(h, id)
		return append(h, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	if err == nil {
		var out []byte
		if out, err = e.Encode(header(0), res); err == nil {
			if out, err = sealFrame(out, e, start); err == nil {
				return out
			}
		}
		err = fmt.Errorf("transport: encode result: %w", err)
	}
	msg := err.Error()
	if len(msg) > readChunk {
		msg = msg[:readChunk]
	}
	out := append(header(errorCode(err)), msg...)
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out
}

// sealFrame fills in the length prefix of the frame that starts at start
// and whose body e just encoded. A frame over the limit is not sent, so e
// is told to forget what that body defined.
func sealFrame(b []byte, e *enc.Encoder, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > maxFrameBytes {
		e.Rollback()
		return b[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// readFrame reads one frame from r into buf (grown as needed) and returns
// its bytes after the length prefix. The prefix is checked before a byte
// is allocated, and the buffer grows with the bytes received rather than
// the bytes promised. The prefix is peeked in r's own buffer: read into an
// array of its own it would escape through r, one allocation per frame.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		if len(prefix) > 0 && err == io.EOF {
			return buf[:0], fmt.Errorf("%w: connection ended inside a length prefix", enc.ErrTruncated)
		}
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	r.Discard(4)
	if n > maxFrameBytes {
		return buf[:0], fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	buf = buf[:0]
	for len(buf) < n {
		want := min(n-len(buf), max(len(buf), readChunk))
		if cap(buf)-len(buf) < want {
			buf = append(make([]byte, 0, len(buf)+want), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+want])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf[:0], fmt.Errorf("%w: connection ended %d bytes into a %d-byte frame", enc.ErrTruncated, len(buf), n)
		}
	}
	return buf, nil
}

// header is a parsed frame header (without the length prefix).
type header struct {
	flags    byte
	code     byte // priority class on a request, error code on a response
	id       uint64
	deadline int64
	method   []byte // aliases the frame
}

// parseFrame splits a frame, as readFrame returned it, into its header and
// body. The method and the body alias frame.
func parseFrame(frame []byte) (header, []byte, error) {
	const fixed = headerBytes - 4
	if len(frame) < fixed {
		return header{}, nil, fmt.Errorf("%w: %d-byte frame is shorter than its header", enc.ErrTruncated, len(frame))
	}
	h := header{
		flags:    frame[0],
		code:     frame[1],
		id:       binary.BigEndian.Uint64(frame[2:]),
		deadline: int64(binary.BigEndian.Uint64(frame[10:])),
	}
	m := int(binary.BigEndian.Uint16(frame[18:]))
	if m > len(frame)-fixed {
		return header{}, nil, fmt.Errorf("%w: %d-byte method name in a %d-byte frame", enc.ErrTruncated, m, len(frame))
	}
	h.method = frame[fixed : fixed+m]
	return h, frame[fixed+m:], nil
}

// argument decodes a request's body, a struct lent (enc.DecodeLent), and
// restores the Framed the caller passed, if it passed one.
func (h header) argument(d *enc.Decoder, body []byte) (interface{}, error) {
	arg, err := d.DecodeLent(body)
	if err != nil || h.flags&flagFramed == 0 {
		return arg, err
	}
	f := Framed{Pri: int(h.code), Arg: arg}
	if h.flags&flagDeadline != 0 {
		f.Deadline = time.Unix(0, h.deadline)
	}
	return f, nil
}

// result decodes a response's body: the call's result, a struct lent
// (enc.DecodeLent), or its error.
func (h header) result(d *enc.Decoder, method string, body []byte) (interface{}, error) {
	if h.code != 0 {
		return nil, remoteError(method, h.code, string(body))
	}
	return d.DecodeLent(body)
}

// releaseResult returns a handler's result to its pool once its response
// is written, unless it is the argument the handler was lent (an echo):
// that is one value, and whoever owns the argument releases it.
func releaseResult(arg, res interface{}) {
	arg, _, _ = Unframe(arg)
	a, r := reflect.ValueOf(arg), reflect.ValueOf(res)
	if a.Kind() == reflect.Pointer && r.Kind() == reflect.Pointer && a.Pointer() == r.Pointer() {
		return
	}
	enc.Release(res)
}
