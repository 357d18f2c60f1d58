package enc

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"unsafe"
)

// A message is one any-typed value:
//
//	mode byte   modePlan, the one mode there is; any other is ErrCorrupt
//	uvarint     count of type definitions, then each definition (uvarint
//	            id, uvarint-prefixed registered name, 8-byte little-endian
//	            fingerprint)
//	uvarint     the value's type id (0 = nil), then that type's plan
//	            encoding
//
// Definitions sit ahead of the value so a receiver's table stays in step
// with the sender's even when the value itself fails to decode.
const modePlan = 0

// maxTypes bounds a Decoder's table; no binary registers this many types,
// so a peer that defines more is not speaking this protocol.
const maxTypes = 1 << 14

// Encoder is the sending half of one direction of one connection. It is
// not safe for concurrent use: messages must reach the peer's Decoder in
// the order they were encoded, so callers encode under the same lock that
// orders their writes.
type Encoder struct {
	sent  map[reflect.Type]sentType
	order []reflect.Type // sent's keys by id, so a failed message can be undone
	defs  []byte         // definitions the last message introduced
	fresh int            // how many of order the last message added
	depth int
	once  int // see DefinitionBytes
}

type sentType struct {
	id   uint64
	plan *codec
}

// NewEncoder returns an Encoder with an empty type table.
func NewEncoder() *Encoder { return &Encoder{sent: make(map[reflect.Type]sentType)} }

// Reset empties the type table, so the next message defines every type it
// uses and a Decoder that has seen nothing before it (one Reset at the same
// point) can read it. A journal record is encoded between two Resets: any
// record may be the first a reader sees.
func (e *Encoder) Reset() {
	clear(e.sent)
	e.order, e.fresh = e.order[:0], 0
}

// DefinitionBytes returns how many bytes of the last encoded message were
// type definitions: what the connection paid once for first uses, over and
// above what the same value costs on every later call.
func (e *Encoder) DefinitionBytes() int { return e.once }

// Encode appends v's message to dst. A pointer to a struct encodes as the
// struct: exactly the bytes the value itself does. On error dst is
// returned at its original length and the Encoder's table is as it was
// before the call.
func (e *Encoder) Encode(dst []byte, v interface{}) ([]byte, error) {
	start := len(dst)
	e.defs, e.fresh, e.once, e.depth = e.defs[:0], 0, 0, 0
	out := append(dst, modePlan, 0) // mode, then a zero definition count
	var err error
	x := reflect.ValueOf(v)
	if x.Kind() == reflect.Pointer && lendable(x.Type().Elem()) {
		// A *T, lent or not, travels as the T it points at: the receiver
		// cannot tell which form the sender held.
		if x.IsNil() {
			x = reflect.Value{}
		} else {
			x = x.Elem()
		}
	}
	if !x.IsValid() {
		out = append(out, 0)
	} else {
		out, err = e.concrete(out, x)
	}
	if err != nil {
		e.Rollback()
		return dst[:start], err
	}
	if e.fresh > 0 {
		// First use of a type on this connection: open a gap ahead of the
		// value and put the definitions in it. Every later message skips
		// this.
		var count [binary.MaxVarintLen64]byte
		c := binary.PutUvarint(count[:], uint64(e.fresh))
		e.once = c - 1 + len(e.defs)
		end := len(out)
		out = append(out, make([]byte, e.once)...)
		copy(out[start+2+e.once:], out[start+2:end])
		copy(out[start+1:], count[:c])
		copy(out[start+1+c:], e.defs)
	}
	return out, nil
}

// Rollback forgets the type definitions the last encoded message
// introduced, for a caller that will not send it: the peer never saw them,
// so the next message that uses those types must define them again.
func (e *Encoder) Rollback() {
	for _, t := range e.order[len(e.order)-e.fresh:] {
		delete(e.sent, t)
	}
	e.order = e.order[:len(e.order)-e.fresh]
	e.fresh = 0
}

// concrete appends the type reference and encoding of a non-interface
// value, defining its type on the connection at first use.
func (e *Encoder) concrete(b []byte, v reflect.Value) ([]byte, error) {
	st, ok := e.sent[v.Type()]
	if !ok {
		var err error
		if st, err = e.define(v.Type()); err != nil {
			return b, err
		}
	}
	if err := e.descend(); err != nil {
		return b, err
	}
	defer e.ascend()
	return st.plan.enc(e, binary.AppendUvarint(b, st.id), v)
}

func (e *Encoder) define(t reflect.Type) (sentType, error) {
	mu.RLock()
	w := byType[t]
	mu.RUnlock()
	if w == nil {
		return sentType{}, &UnregisteredTypeError{Type: t.String()}
	}
	st := sentType{id: uint64(len(e.order) + 1), plan: w.plan}
	e.sent[t] = st
	e.order = append(e.order, t)
	e.fresh++
	e.defs = binary.AppendUvarint(e.defs, st.id)
	e.defs = append(binary.AppendUvarint(e.defs, uint64(len(w.name))), w.name...)
	e.defs = binary.LittleEndian.AppendUint64(e.defs, w.fp)
	return st, nil
}

func (e *Encoder) descend() error {
	if e.depth++; e.depth > maxDepth {
		return errDepth
	}
	return nil
}

func (e *Encoder) ascend() { e.depth-- }

// Decoder is the receiving half of one direction of one connection. It is
// not safe for concurrent use and must see messages in the order the
// peer's Encoder produced them. Every string it decodes comes from its
// table (see Intern), so a string its stream sent before is shared, not
// copied again.
type Decoder struct {
	types    []recvType // index id-1
	strs     strtab
	r        reader // the message being decoded, kept here so the *reader the plans take costs nothing
	borrowed bool   // the last decode set a View into its message
}

// recvType is one defined id: the local type, or why values of it fail.
type recvType struct {
	w   *wireType
	err error
}

// NewDecoder returns a Decoder with an empty type table.
func NewDecoder() *Decoder { return &Decoder{} }

// Reset empties the type table: the next message must define every type it
// uses (see Encoder.Reset). The string table stays: a journal stream
// resets per record and still names the same clients and keys.
func (d *Decoder) Reset() { d.types = d.types[:0] }

// Intern returns b as a string from the Decoder's table, as a decode
// delivers a string field: for the strings a caller reads from the same
// stream outside a value, such as a journal record's header.
func (d *Decoder) Intern(b []byte) string { return d.strs.intern(b) }

// Decode returns the value msg holds. The result shares no memory with
// msg, except a View it holds (see Borrowed), and nothing with any other
// value but the strings it shares with this Decoder's earlier results. A
// value-level failure (an id never defined, a layout mismatch, a body cut
// short) leaves the Decoder usable for the next message.
func (d *Decoder) Decode(msg []byte) (interface{}, error) { return d.decode(msg, false) }

// DecodeLent is Decode for a message the caller hands over for one use: a
// struct comes back as a *T lent from T's pool (see Lend), which the
// caller may Release once done with it. What the struct points at is the
// caller's to keep, as Decode delivers it.
func (d *Decoder) DecodeLent(msg []byte) (interface{}, error) { return d.decode(msg, true) }

// Borrowed reports whether the value the last Decode or DecodeLent
// returned holds a View into its message: then the message's bytes are
// the value's for as long as it is used, and the caller must not reuse
// them before.
func (d *Decoder) Borrowed() bool { return d.borrowed }

func (d *Decoder) decode(msg []byte, lend bool) (interface{}, error) {
	d.borrowed = false
	r := &d.r
	*r = reader{b: msg, d: d}
	defer func() { r.b = nil }() // hold on to none of msg past the call
	mode, err := r.byte()
	if err != nil {
		return nil, err
	}
	if mode != modePlan {
		return nil, fmt.Errorf("%w: message mode %d", ErrCorrupt, mode)
	}
	if err := d.define(r); err != nil {
		return nil, err
	}
	w, err := r.ref()
	var x interface{}
	switch {
	case err != nil || w == nil: // failed, or nil
	case lend && lendable(w.typ):
		x = poolOf(w.typ).Get()
		err = r.body(w, reflect.ValueOf(x).Elem())
	default:
		var v reflect.Value
		if v, err = r.concrete(w); err == nil {
			x = Interface(v)
		}
	}
	if err == nil && len(r.b) != 0 {
		err = fmt.Errorf("%w: %d bytes after the value", ErrCorrupt, len(r.b))
	}
	if err != nil {
		if lend {
			Release(x)
		}
		d.borrowed = false
		return nil, err
	}
	return x, nil
}

// define reads a message's definitions into the table. A name this binary
// does not know, or knows with another layout, is recorded as such and
// fails only the values that use it.
func (d *Decoder) define(r *reader) error {
	n, err := r.count(10) // id, name length, fingerprint
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		id, err := r.uvarint()
		if err != nil {
			return err
		}
		name, err := r.counted()
		if err != nil {
			return err
		}
		fp, err := r.take(8)
		if err != nil {
			return err
		}
		if id != uint64(len(d.types)+1) || id > maxTypes {
			return fmt.Errorf("%w: type definition %d out of sequence", ErrCorrupt, id)
		}
		mu.RLock()
		w := byName[string(name)]
		mu.RUnlock()
		rt := recvType{w: w}
		switch remote := binary.LittleEndian.Uint64(fp); {
		case w == nil:
			rt.err = &UnregisteredTypeError{Type: string(name)}
		case w.fp != remote:
			rt.err = fmt.Errorf("%w: %s is %016x here, %016x at the sender", ErrFingerprint, w.name, w.fp, remote)
		}
		d.types = append(d.types, rt)
	}
	return nil
}

// ref reads a type reference: the type's registry entry, or nil for id 0
// (a nil value).
func (r *reader) ref() (*wireType, error) {
	id, err := r.uvarint()
	if err != nil || id == 0 {
		return nil, err
	}
	if id > uint64(len(r.d.types)) {
		return nil, fmt.Errorf("%w: %d of %d defined", ErrUnknownTypeID, id, len(r.d.types))
	}
	rt := r.d.types[id-1]
	if rt.err != nil {
		return nil, rt.err
	}
	return rt.w, nil
}

// body decodes a value of w's type into the zero, settable v.
func (r *reader) body(w *wireType, v reflect.Value) error {
	if err := r.descend(); err != nil {
		return err
	}
	defer r.ascend()
	return w.plan.dec(r, v)
}

// concrete reads a value of w's type, the type reference ref read; the
// zero Value for a nil w. A value it returns is fresh (see Interface):
// nothing else points at it, though the strings inside it may be shared.
func (r *reader) concrete(w *wireType) (reflect.Value, error) {
	if w == nil {
		return reflect.Value{}, nil
	}
	v := reflect.New(w.typ).Elem()
	if err := r.body(w, v); err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}

// Interface returns the value v holds as an interface{}, as v.Interface()
// does, but without copying it where that is safe. v must be fresh — the
// element of a reflect.New that nothing else points at; the strings it
// holds may be shared, being immutable — and must never be written again
// through v or any copy of it: the interface owns the value from here on.
//
// A struct type wider than a machine word is never pointer-shaped, so an
// interface holding one keeps a pointer to the value in its data word, and
// the value reflect.New allocated can be that value: the second allocation
// and copy v.Interface() would make are saved. Any other type takes the
// copy.
func Interface(v reflect.Value) interface{} {
	t := v.Type()
	if t.Kind() != reflect.Struct || t.Size() <= unsafe.Sizeof(uintptr(0)) || !v.CanAddr() {
		return v.Interface()
	}
	// Both interface kinds are two words. An interface{}'s first word is its
	// dynamic type, the same pointer a reflect.Type holds as its data word.
	type words struct{ typ, data unsafe.Pointer }
	var x interface{}
	w := (*words)(unsafe.Pointer(&x))
	w.typ = (*words)(unsafe.Pointer(&t)).data
	w.data = v.Addr().UnsafePointer()
	return x
}
