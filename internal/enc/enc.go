// Package enc is the one codec for any-typed values that leave the
// process, over a connection or into the tuplespace journal (WAL records,
// snapshots, replica shipping), and the one type registry behind both. An
// application registers each entry type exactly once with RegisterType and
// it works over the network and in the durable log alike.
//
// The wire codec is compiled, not interpreted: the first time a registered
// type is sent or received, its layout is reflected once into an
// encode/decode plan — kind-switched writers for the scalar kinds, string,
// []byte and time.Time, recursion for nested structs, slices, arrays, maps,
// pointers and interface fields — and every later value of that type runs
// the plan straight into the caller's buffer. Type identity crosses a
// connection once: an Encoder/Decoder pair keeps a per-connection table, so
// the first use of a type sends (id, registered name, layout fingerprint)
// and later uses send the varint id alone; a journal record is its own
// connection (the pair is Reset per record), so every record defines the
// types it uses and reads alone. Two binaries whose layouts for a
// name differ fail the value with ErrFingerprint instead of decoding
// garbage. RegisterType refuses a type the plan compiler cannot handle (a
// type that encodes itself, a channel or func field, a complex number, …):
// it panics naming the type and the field, so such a type fails when its
// package initialises, never on the wire.
package enc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// UnregisteredTypeError reports an attempt to encode a concrete type that
// was never registered with RegisterType, or to decode a type name the
// receiving binary never registered.
type UnregisteredTypeError struct {
	// Type is the Go type of the offending value, e.g. "main.Task".
	Type string
}

// Error implements error.
func (e *UnregisteredTypeError) Error() string {
	return fmt.Sprintf("enc: type %s not registered; call RegisterType(%s{}) before writing it to a space, journal or RPC", e.Type, e.Type)
}

// Errors a Decoder returns for bytes it cannot accept. Each is distinct so
// a caller can tell a short read from a peer built from different source.
var (
	// ErrTruncated: the input ended, or a length inside it claims more
	// bytes than remain, before the value was complete.
	ErrTruncated = errors.New("enc: truncated input")
	// ErrCorrupt: the input is complete but not something an Encoder
	// writes (trailing bytes, an out-of-range scalar, nesting too deep).
	ErrCorrupt = errors.New("enc: malformed input")
	// ErrUnknownTypeID: a value references a type id its connection never
	// defined.
	ErrUnknownTypeID = errors.New("enc: unknown type id")
	// ErrFingerprint: the peer's layout for a registered name differs from
	// this binary's.
	ErrFingerprint = errors.New("enc: type layout differs between peers")
)

// View is a []byte field that a decode sets to the run of bytes in the
// message itself instead of a copy: for a call's argument that carries a
// large byte string its handler reads once and keeps nothing of, as a
// replica batch is. It encodes exactly as a []byte does, and a layout
// with a View in place of a []byte has the same fingerprint. A decode
// that set one says so (Decoder.Borrowed), and its message then belongs
// to the value: the transport keeps a call's request frame for the call
// until its response is encoded (DESIGN §14). Anything a receiver keeps
// past that it copies. Only a request's argument may hold one: a
// response's frame goes back to its connection.
type View []byte

// wireType is one registry entry, compiled when it is registered.
type wireType struct {
	name string
	typ  reflect.Type
	user bool // went through RegisterType (the basic kinds are built in)
	plan *codec
	fp   uint64
	pool *lender // a lendable type's values for DecodeLent, else nil
}

var (
	mu     sync.RWMutex
	byType = make(map[reflect.Type]*wireType)
	byName = make(map[string]*wireType)
)

func init() {
	// The basic types this repository sends bare inside an `any`: scalars,
	// strings, raw datagrams, numeric vectors.
	for _, v := range []interface{}{
		false, "", int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0), float32(0), float64(0),
		[]byte(nil), []string(nil), []int(nil), []int64(nil), []float64(nil),
	} {
		register(v, false)
	}
}

// typeName is the name a type is known by on the wire: import path and
// name for a named type, the printed form for an unnamed one.
func typeName(t reflect.Type) string {
	if t.Name() != "" && t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	return t.String()
}

func register(v interface{}, user bool) {
	t := reflect.TypeOf(v)
	mu.Lock()
	defer mu.Unlock()
	if w := byType[t]; w != nil {
		w.user = w.user || user
		return
	}
	c, err := compile(t)
	if err != nil {
		panic(fmt.Sprintf("enc: RegisterType(%s): %v", t, err))
	}
	w := &wireType{name: typeName(t), typ: t, user: user, plan: c, fp: fingerprint(t)}
	if lendable(t) {
		w.pool = poolOf(t)
	}
	byType[t], byName[w.name] = w, w
}

// RegisterType registers v's concrete type for transmission inside
// any-typed RPC frames and journal/WAL records. It is safe to call from
// init functions and concurrently. It panics, naming the type and the
// field, when the plan compiler cannot carry the type.
func RegisterType(v interface{}) { register(v, true) }

// IsRegistered reports whether v's concrete type went through
// RegisterType.
func IsRegistered(v interface{}) bool {
	mu.RLock()
	defer mu.RUnlock()
	w := byType[reflect.TypeOf(v)]
	return w != nil && w.user
}

// RegisteredTypes lists every type that went through RegisterType, in no
// particular order — what a wire-compatibility test iterates over.
func RegisteredTypes() []reflect.Type {
	mu.RLock()
	defer mu.RUnlock()
	var out []reflect.Type
	for t, w := range byType {
		if w.user {
			out = append(out, t)
		}
	}
	return out
}

// Lending. A call's top-level argument or result is a struct that lives
// for one call: the sender builds it, the receiver copies its fields out.
// Allocating it afresh at both ends was half of what a keyed write+take
// pair allocated, so such a struct is lent instead, from one pool per
// type: DecodeLent hands a received one over as a *T taken from its
// type's pool, a sender takes the *T it sends from the same pool with
// Lend, and whoever is done with one hands it back with Release (a Lent
// field's, with ReleaseLent). Only the top-level struct is lent, and a
// struct in a Lent field; what they point at (an entry in an interface
// field, a byte slice, a map, a string from the Decoder's table) is the
// receiver's and may be kept past its Release.
// Releasing is optional: a lent value nobody releases is ordinary
// garbage. Releasing one that someone still uses is the one mistake
// possible: the next lend hands it to another call.

// Lent is an interface{} field whose struct DecodeLent lends too: where
// Decode puts a T in the field, DecodeLent puts a *T from T's pool — for a
// call's argument whose receiver matches against the struct and keeps
// nothing of it, as a lookup's template is. It lives for the call: the
// receiver of a lent struct with Lent fields releases them with
// ReleaseLent, which Release alone does not do, since a sender's Lent
// field holds the caller's value, which the caller uses again. A Lent
// field encodes exactly as an interface{} does, a *T in it as the T, and
// a layout with one in place of an interface{} has the same fingerprint.
type Lent interface{}

// A lender is one lendable type's pool, and where the type's Lent fields
// are.
type lender struct {
	sync.Pool
	lent []int // indexes of the type's Lent fields
}

// pools holds the lender of each lendable type T, keyed by the type word
// of *T: what an interface holding a *T starts with. It is the one place
// Lend, Release and ReleaseLent find a type's pool (DecodeLent finds it in
// the type's registry entry), and it is copied on write: a type's first
// lend adds it, so a lookup is one load and one map read, with no lock.
var (
	pools   atomic.Pointer[map[unsafe.Pointer]*lender]
	poolsMu sync.Mutex // serializes additions
)

// lendable reports whether a top-level value of type t is lent: a struct,
// except time.Time, which crosses as its own bytes.
func lendable(t reflect.Type) bool { return t.Kind() == reflect.Struct && t != timeType }

// typeWord returns the first word of an interface holding a value of type
// t, which is also the data word of t itself.
func typeWord(t reflect.Type) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&t))[1] }

// dynamicType returns the first word of x: its dynamic type, nil for nil.
func dynamicType(x interface{}) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&x))[0] }

// poolOf returns the lender of the lendable type t, adding it on first
// use.
func poolOf(t reflect.Type) *lender {
	key := typeWord(reflect.PointerTo(t))
	if m := pools.Load(); m != nil && (*m)[key] != nil {
		return (*m)[key]
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	old := pools.Load()
	if old != nil && (*old)[key] != nil {
		return (*old)[key]
	}
	m := make(map[unsafe.Pointer]*lender, 1)
	if old != nil {
		for k, l := range *old {
			m[k] = l
		}
	}
	l := &lender{Pool: sync.Pool{New: func() interface{} { return reflect.New(t).Interface() }}}
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type == lentType {
			l.lent = append(l.lent, i)
		}
	}
	m[key] = l
	pools.Store(&m)
	return l
}

// pooled returns the lender of x's dynamic type, a *T, or nil when the
// type has none yet.
func pooled(x interface{}) *lender {
	if m := pools.Load(); m != nil {
		return (*m)[dynamicType(x)]
	}
	return nil
}

// Lend returns a *T holding v, for a struct type T, taken from the pool
// DecodeLent takes T's values from: for a message whose receiver, or
// whoever the caller hands it to, releases it.
func Lend[T any](v T) *T {
	var np *T
	pool := pooled(np)
	if pool == nil {
		t := reflect.TypeOf(np).Elem()
		if !lendable(t) {
			p := new(T)
			*p = v
			return p
		}
		pool = poolOf(t)
	}
	p := pool.Get().(*T)
	*p = v
	return p
}

// Release zeroes the struct v points at and returns it to its type's pool
// (see Lend). Anything else — nil, a value that is not a pointer to a
// struct — is left alone, so a caller may release whatever a call handed
// it. Nobody may use v after it is released, and it is released once.
func Release(v interface{}) {
	pool := lenderOf(v)
	if pool == nil {
		return
	}
	reflect.ValueOf(v).Elem().SetZero()
	pool.Put(v)
}

// ReleaseLent releases the struct in each Lent field of the struct v
// points at (see Release), leaving v itself as it is: for the receiver of
// a lent call argument, once the call is over. Anything else is left
// alone, as Release leaves it.
func ReleaseLent(v interface{}) {
	pool := lenderOf(v)
	if pool == nil || len(pool.lent) == 0 {
		return
	}
	s := reflect.ValueOf(v).Elem()
	for _, i := range pool.lent {
		Release(s.Field(i).Interface())
	}
}

// lenderOf returns the lender of v's type when v is a non-nil pointer to a
// lendable struct, else nil.
func lenderOf(v interface{}) *lender {
	pool := pooled(v)
	if pool == nil {
		t := reflect.TypeOf(v)
		if t == nil || t.Kind() != reflect.Pointer || !lendable(t.Elem()) {
			return nil
		}
		pool = poolOf(t.Elem())
	}
	if reflect.ValueOf(v).IsNil() {
		return nil
	}
	return pool
}
