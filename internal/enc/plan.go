package enc

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A codec is the compiled plan for one Go type: enc appends v's encoding to
// b, dec fills the zero, settable v from r. min is the fewest bytes any
// value of the type encodes to (always ≥ 1), which is what lets a decoder
// refuse a length that the bytes left in the message cannot back before it
// allocates for it.
type codec struct {
	enc encFunc
	dec decFunc
	min int
}

type (
	encFunc func(e *Encoder, b []byte, v reflect.Value) ([]byte, error)
	decFunc func(r *reader, v reflect.Value) error
)

var (
	compileMu sync.Mutex
	codecs    = make(map[reflect.Type]*codec) // every type reached by a successful compile

	timeType        = reflect.TypeOf(time.Time{})
	viewType        = reflect.TypeOf(View(nil))
	lentType        = reflect.TypeOf((*Lent)(nil)).Elem()
	gobEncoderType  = reflect.TypeOf((*interface{ GobEncode() ([]byte, error) })(nil)).Elem()
	binaryMarshaler = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
)

// compile builds the plan for t, or reports why no plan can carry it.
// Codecs built on the way are published only if the whole of t compiles,
// so a type never holds a plan for a part whose other parts failed.
func compile(t reflect.Type) (*codec, error) {
	compileMu.Lock()
	defer compileMu.Unlock()
	s := session{}
	c, err := s.codecFor(t)
	if err != nil {
		return nil, err
	}
	for t, c := range s {
		codecs[t] = c
	}
	return c, nil
}

// session holds the codecs of one compile call. An entry is stored before
// its parts are compiled, so a recursive type finds itself and links to the
// codec being filled in rather than recursing forever.
type session map[reflect.Type]*codec

func (s session) codecFor(t reflect.Type) (*codec, error) {
	if c := codecs[t]; c != nil {
		return c, nil
	}
	if c := s[t]; c != nil {
		return c, nil
	}
	c := &codec{min: 1}
	s[t] = c
	if err := s.build(c, t); err != nil {
		return nil, err
	}
	return c, nil
}

func (s session) build(c *codec, t reflect.Type) error {
	if t == timeType {
		c.enc, c.dec = encTime, decTime
		return nil
	}
	if marshals(t) {
		return fmt.Errorf("enc: %s encodes itself", t)
	}
	switch t.Kind() {
	case reflect.Bool:
		c.enc, c.dec = encBool, decBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.enc, c.dec = encInt, decInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.enc, c.dec = encUint, decUint
	case reflect.Float32:
		c.enc, c.dec, c.min = encFloat32, decFloat32, 4
	case reflect.Float64:
		c.enc, c.dec, c.min = encFloat64, decFloat64, 8
	case reflect.String:
		c.enc, c.dec = encString, decString
	case reflect.Interface:
		c.enc, c.dec = encInterface, decInterface
		if t == lentType {
			c.enc, c.dec = encLent, decLent
		}
	case reflect.Struct:
		return s.buildStruct(c, t)
	case reflect.Slice:
		if t == viewType {
			c.enc, c.dec = encBytes, decView
			return nil
		}
		if t.Elem().Kind() == reflect.Uint8 {
			c.enc, c.dec = encBytes, decBytes
			return nil
		}
		elem, err := s.codecFor(t.Elem())
		if err != nil {
			return err
		}
		c.enc, c.dec = sliceCodec(t, elem)
	case reflect.Array:
		if t.Len() == 0 {
			return fmt.Errorf("enc: %s has no elements", t)
		}
		elem, err := s.codecFor(t.Elem())
		if err != nil {
			return err
		}
		c.enc, c.dec = arrayCodec(t.Len(), elem)
		c.min = t.Len() * elem.min
	case reflect.Map:
		key, err := s.codecFor(t.Key())
		if err != nil {
			return err
		}
		val, err := s.codecFor(t.Elem())
		if err != nil {
			return err
		}
		c.enc, c.dec = mapCodec(t, key, val)
	case reflect.Pointer:
		elem, err := s.codecFor(t.Elem())
		if err != nil {
			return err
		}
		c.enc, c.dec = pointerCodec(t.Elem(), elem)
	default:
		return fmt.Errorf("enc: no plan for %s (kind %s)", t, t.Kind())
	}
	return nil
}

// marshals reports whether t encodes itself (gob's GobEncoder, or
// encoding.BinaryMarshaler): its exported fields need not be its state.
func marshals(t reflect.Type) bool {
	for _, it := range []reflect.Type{gobEncoderType, binaryMarshaler} {
		if t.Implements(it) || reflect.PointerTo(t).Implements(it) {
			return true
		}
	}
	return false
}

func (s session) buildStruct(c *codec, t reflect.Type) error {
	type field struct {
		index int
		c     *codec
	}
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		fc, err := s.codecFor(t.Field(i).Type)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", t, t.Field(i).Name, err)
		}
		fields = append(fields, field{i, fc})
	}
	if len(fields) == 0 {
		return fmt.Errorf("enc: %s has no exported fields", t)
	}
	c.min = 0
	for _, f := range fields {
		c.min += f.c.min
	}
	c.enc = func(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
		var err error
		for _, f := range fields {
			if b, err = f.c.enc(e, b, v.Field(f.index)); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	c.dec = func(r *reader, v reflect.Value) error {
		for _, f := range fields {
			if err := f.c.dec(r, v.Field(f.index)); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// fingerprint hashes t's layout as the plan sees it: kinds, exported field
// names in order, element types. Two binaries agree on a registered name's
// fingerprint exactly when one's encoding of it is the other's.
func fingerprint(t reflect.Type) uint64 {
	var sb strings.Builder
	describe(&sb, t, map[reflect.Type]bool{})
	h := fnv.New64a()
	h.Write([]byte(sb.String()))
	return h.Sum64()
}

func describe(sb *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	if t == timeType {
		sb.WriteString("time")
		return
	}
	switch t.Kind() {
	case reflect.Struct:
		if seen[t] {
			sb.WriteString("@" + typeName(t))
			return
		}
		seen[t] = true
		sb.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				sb.WriteString(f.Name + " ")
				describe(sb, f.Type, seen)
				sb.WriteByte(';')
			}
		}
		sb.WriteByte('}')
	case reflect.Slice:
		sb.WriteString("[]")
		describe(sb, t.Elem(), seen)
	case reflect.Array:
		sb.WriteString("[" + strconv.Itoa(t.Len()) + "]")
		describe(sb, t.Elem(), seen)
	case reflect.Map:
		sb.WriteString("map[")
		describe(sb, t.Key(), seen)
		sb.WriteByte(']')
		describe(sb, t.Elem(), seen)
	case reflect.Pointer:
		sb.WriteByte('*')
		describe(sb, t.Elem(), seen)
	default:
		sb.WriteString(t.Kind().String())
	}
}

// --- scalar kinds ---

func encBool(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	if v.Bool() {
		return append(b, 1), nil
	}
	return append(b, 0), nil
}

func decBool(r *reader, v reflect.Value) error {
	c, err := r.byte()
	if err != nil {
		return err
	}
	if c > 1 {
		return fmt.Errorf("%w: bool byte %d", ErrCorrupt, c)
	}
	v.SetBool(c == 1)
	return nil
}

func encInt(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	return binary.AppendVarint(b, v.Int()), nil
}

func decInt(r *reader, v reflect.Value) error {
	x, err := r.varint()
	if err != nil {
		return err
	}
	if v.OverflowInt(x) {
		return fmt.Errorf("%w: %d overflows %s", ErrCorrupt, x, v.Type())
	}
	v.SetInt(x)
	return nil
}

func encUint(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	return binary.AppendUvarint(b, v.Uint()), nil
}

func decUint(r *reader, v reflect.Value) error {
	x, err := r.uvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(x) {
		return fmt.Errorf("%w: %d overflows %s", ErrCorrupt, x, v.Type())
	}
	v.SetUint(x)
	return nil
}

func encFloat32(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float()))), nil
}

func decFloat32(r *reader, v reflect.Value) error {
	p, err := r.take(4)
	if err != nil {
		return err
	}
	v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(p))))
	return nil
}

func encFloat64(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
}

func decFloat64(r *reader, v reflect.Value) error {
	p, err := r.take(8)
	if err != nil {
		return err
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
	return nil
}

func encString(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
}

// decString takes the string from the Decoder's table (see strtab).
func decString(r *reader, v reflect.Value) error {
	p, err := r.counted()
	if err != nil {
		return err
	}
	v.SetString(r.d.strs.intern(p))
	return nil
}

func encBytes(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	p := v.Bytes()
	return append(binary.AppendUvarint(b, uint64(len(p))), p...), nil
}

// decBytes copies out of the message: the caller reuses its buffer. Like
// every length-0 slice or map here, an empty one decodes as nil — what gob
// delivered, and what templates and DeepEqual in this tree rely on.
func decBytes(r *reader, v reflect.Value) error {
	p, err := r.counted()
	if err != nil || len(p) == 0 {
		return err
	}
	v.SetBytes(append([]byte(nil), p...))
	return nil
}

// decView is decBytes without the copy: the View is the run of bytes in
// the message itself, and the Decoder notes that its last decode borrowed.
func decView(r *reader, v reflect.Value) error {
	p, err := r.counted()
	if err != nil || len(p) == 0 {
		return err
	}
	v.SetBytes(p[:len(p):len(p)])
	r.d.borrowed = true
	return nil
}

// time.Time crosses as its MarshalBinary form (gob's own choice, so the
// decoded wall clock, location and stripped monotonic reading are what gob
// delivered), length-prefixed; the zero time is length 0.
func encTime(_ *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	t := v.Interface().(time.Time)
	if t.IsZero() {
		return append(b, 0), nil
	}
	p, err := t.MarshalBinary()
	if err != nil {
		return b, fmt.Errorf("enc: time: %w", err)
	}
	return append(binary.AppendUvarint(b, uint64(len(p))), p...), nil
}

func decTime(r *reader, v reflect.Value) error {
	p, err := r.counted()
	if err != nil || len(p) == 0 {
		return err
	}
	if err := v.Addr().Interface().(*time.Time).UnmarshalBinary(p); err != nil {
		return fmt.Errorf("%w: time: %v", ErrCorrupt, err)
	}
	return nil
}

// --- composite kinds ---

func sliceCodec(t reflect.Type, elem *codec) (encFunc, decFunc) {
	enc := func(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		var err error
		for i := 0; i < n; i++ {
			if b, err = elem.enc(e, b, v.Index(i)); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	dec := func(r *reader, v reflect.Value) error {
		n, err := r.count(elem.min)
		if err != nil || n == 0 {
			return err
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			if err := elem.dec(r, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	}
	return enc, dec
}

func arrayCodec(n int, elem *codec) (encFunc, decFunc) {
	enc := func(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i := 0; i < n; i++ {
			if b, err = elem.enc(e, b, v.Index(i)); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	dec := func(r *reader, v reflect.Value) error {
		for i := 0; i < n; i++ {
			if err := elem.dec(r, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return enc, dec
}

func mapCodec(t reflect.Type, key, val *codec) (encFunc, decFunc) {
	// gob told a nil map from an empty one (and only maps: an empty slice
	// arrived nil), and lookup templates depend on it, so the count is
	// offset by one and 0 is the nil map.
	enc := func(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		if v.Len() == 0 {
			return b, nil
		}
		k, el := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		var err error
		for it := v.MapRange(); it.Next(); {
			k.SetIterKey(it)
			el.SetIterValue(it)
			if b, err = key.enc(e, b, k); err != nil {
				return b, err
			}
			if b, err = val.enc(e, b, el); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	dec := func(r *reader, v reflect.Value) error {
		n, err := r.uvarint()
		if err != nil || n == 0 {
			return err
		}
		if n--; n > uint64(len(r.b)/(key.min+val.min)) {
			return fmt.Errorf("%w: %d map entries in %d bytes", ErrTruncated, n, len(r.b))
		}
		m := reflect.MakeMapWithSize(t, int(n))
		k, el := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for i := uint64(0); i < n; i++ {
			k.SetZero()
			el.SetZero()
			if err := key.dec(r, k); err != nil {
				return err
			}
			if err := val.dec(r, el); err != nil {
				return err
			}
			m.SetMapIndex(k, el)
		}
		v.Set(m)
		return nil
	}
	return enc, dec
}

func pointerCodec(elemType reflect.Type, elem *codec) (encFunc, decFunc) {
	enc := func(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(b, 0), nil
		}
		if err := e.descend(); err != nil {
			return b, err
		}
		defer e.ascend()
		return elem.enc(e, append(b, 1), v.Elem())
	}
	dec := func(r *reader, v reflect.Value) error {
		present, err := r.byte()
		if err != nil || present == 0 {
			return err
		}
		if present != 1 {
			return fmt.Errorf("%w: pointer byte %d", ErrCorrupt, present)
		}
		if err := r.descend(); err != nil {
			return err
		}
		defer r.ascend()
		p := reflect.New(elemType)
		if err := elem.dec(r, p.Elem()); err != nil {
			return err
		}
		v.Set(p)
		return nil
	}
	return enc, dec
}

// An interface field holds nil (id 0) or a type reference and that type's
// value, exactly like the top-level value of a message.
func encInterface(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	if v.IsNil() {
		return append(b, 0), nil
	}
	return e.concrete(b, v.Elem())
}

func decInterface(r *reader, v reflect.Value) error { return r.iface(v, false) }

// encLent is encInterface for a Lent field, which sends a *T as the T it
// points at, as Encode does a top-level *T: a receiver can pass on what
// DecodeLent lent it.
func encLent(e *Encoder, b []byte, v reflect.Value) ([]byte, error) {
	if x := v.Elem(); x.Kind() == reflect.Pointer && lendable(x.Type().Elem()) {
		if x.IsNil() {
			return append(b, 0), nil
		}
		return e.concrete(b, x.Elem())
	}
	return encInterface(e, b, v)
}

// decLent is decInterface for a Lent field: under DecodeLent, a struct
// comes from its type's pool and the field holds a pointer to it.
func decLent(r *reader, v reflect.Value) error { return r.iface(v, r.lend) }

func (r *reader) iface(v reflect.Value, lend bool) error {
	w, err := r.ref()
	if err != nil || w == nil {
		return err
	}
	if lend && w.pool != nil {
		p := w.pool.Get()
		if err := r.body(w, reflect.ValueOf(p).Elem()); err != nil {
			Release(p)
			return err
		}
		v.Set(reflect.ValueOf(p))
		return nil
	}
	x, err := r.concrete(w)
	if err != nil {
		return err
	}
	if !x.Type().AssignableTo(v.Type()) {
		return fmt.Errorf("%w: %s does not implement %s", ErrCorrupt, x.Type(), v.Type())
	}
	v.Set(reflect.ValueOf(Interface(x)))
	return nil
}

// maxDepth bounds pointer and interface nesting in both directions: a
// cyclic value fails its encode, and a hostile message cannot spend a
// megabyte of bytes on a gigabyte of stack.
const maxDepth = 1000

var errDepth = fmt.Errorf("%w: nested deeper than %d", ErrCorrupt, maxDepth)

// A reader walks one message. Every length it hands out has been checked
// against the bytes that remain.
type reader struct {
	b     []byte
	d     *Decoder
	depth int
	lend  bool // DecodeLent: a Lent field's struct comes from its pool
}

func (r *reader) descend() error {
	if r.depth++; r.depth > maxDepth {
		return errDepth
	}
	return nil
}

func (r *reader) ascend() { r.depth-- }

func (r *reader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, ErrTruncated
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n > len(r.b) {
		return nil, ErrTruncated
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p, nil
}

func (r *reader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, varintErr(n)
	}
	r.b = r.b[n:]
	return x, nil
}

func (r *reader) varint() (int64, error) {
	x, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, varintErr(n)
	}
	r.b = r.b[n:]
	return x, nil
}

func varintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
}

// count reads an element count and refuses one that the remaining bytes
// cannot hold at min bytes an element.
func (r *reader) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)/min) {
		return 0, fmt.Errorf("%w: %d elements of at least %d bytes in %d", ErrTruncated, n, min, len(r.b))
	}
	return int(n), nil
}

// counted reads a length-prefixed run of bytes, aliasing the message.
func (r *reader) counted() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	return r.take(n)
}
