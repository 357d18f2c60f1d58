// Package tuplespace implements the JavaSpaces programming model: a shared,
// associative repository of typed entries with Write, Read and Take
// operations, blocking lookups, per-entry leases, transactions and event
// notification. It is the central substrate of this repository — the
// framework's master and workers coordinate exclusively through a Space,
// exactly as the paper's master/worker modules coordinate through a
// JavaSpace.
//
// # Entries and templates
//
// An entry is any Go struct. A template is a (possibly partially zero)
// value of the same struct type. A template matches an entry when every
// exported, non-zero field of the template is deeply equal to the
// corresponding entry field; zero-valued template fields are wildcards.
// This mirrors JavaSpaces, where null entry fields act as wildcards. As in
// JavaSpaces (where matchable fields are objects such as Integer rather
// than int), fields whose zero value is meaningful for matching should be
// declared as pointers.
package tuplespace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"gospaces/internal/enc"
)

// Entry is any struct value stored in or used to query a Space. Passing a
// non-struct (or pointer to non-struct) to Space operations returns
// ErrNotStruct.
type Entry interface{}

// typeInfo caches per-type reflection data used by the matcher.
type typeInfo struct {
	typ    reflect.Type
	fields []fieldInfo // exported fields
	name   string
	// keyField is the number of the first exported string field tagged
	// `space:"index"`, or -1. It is the field the shard router routes by,
	// and the one field the store indexes from the type's first write; a
	// lookup that fixes it reads one bucket. Other fields are indexed when
	// lookups ask for them (listLocked).
	keyField int
	word     unsafe.Pointer // the type word of an interface holding the type
}

// eface is an interface{}'s layout. A reflect.Type's data word is the type
// word of an interface holding that type.
type eface struct{ typ, data unsafe.Pointer }

// fieldInfo is one exported field: where it sits in the struct and how a
// template's value for it is compared with a candidate's.
type fieldInfo struct {
	index int
	kind  cmpKind
}

// cmpKind selects the comparison for one field. Everything without a
// cheaper exact equivalent — pointers, nested structs, maps, interfaces,
// arrays, complex numbers, slices of anything but bytes — is cmpDeep.
type cmpKind uint8

const (
	cmpDeep   cmpKind = iota // reflect.DeepEqual
	cmpInt                   // every signed width, ==
	cmpUint                  // every unsigned width and uintptr, ==
	cmpFloat                 // float32/64, == (so NaN equals nothing and -0 equals +0)
	cmpBool                  // ==
	cmpString                // ==
	cmpBytes                 // both nil or both non-nil, then bytes.Equal
)

func cmpKindOf(t reflect.Type) cmpKind {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return cmpInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return cmpUint
	case reflect.Float32, reflect.Float64:
		return cmpFloat
	case reflect.Bool:
		return cmpBool
	case reflect.String:
		return cmpString
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return cmpBytes
		}
	}
	return cmpDeep
}

var typeCache sync.Map // reflect.Type -> *typeInfo

// infoFor returns cached reflection info for the struct type underlying e.
func infoFor(e Entry) (*typeInfo, reflect.Value, error) {
	v := reflect.ValueOf(e)
	for v.Kind() == reflect.Ptr {
		if v.IsNil() {
			return nil, reflect.Value{}, fmt.Errorf("tuplespace: nil entry: %w", ErrNotStruct)
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil, reflect.Value{}, fmt.Errorf("tuplespace: %T is not a struct: %w", e, ErrNotStruct)
	}
	t := v.Type()
	if ti, ok := typeCache.Load(t); ok {
		return ti.(*typeInfo), v, nil
	}
	ti := &typeInfo{typ: t, name: t.String(), keyField: -1, word: (*eface)(unsafe.Pointer(&t)).data}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		ti.fields = append(ti.fields, fieldInfo{index: i, kind: cmpKindOf(f.Type)})
		if ti.keyField < 0 && f.Type.Kind() == reflect.String && f.Tag.Get("space") == "index" {
			ti.keyField = i
		}
	}
	typeCache.LoadOrStore(t, ti)
	return ti, v, nil
}

// matcher is a template compiled for matching: one comparer per exported
// non-zero field (zero fields are wildcards and cost nothing per
// candidate), built once per lookup, parked waiter or notify registration.
type matcher []comparer

// comparer holds one template field's value in the form its kind compares.
type comparer struct {
	field int
	kind  cmpKind
	// fieldKey holds the value of the typed kinds: bits for cmpInt,
	// cmpUint and cmpFloat (as Float64bits), str for cmpString. For an
	// indexable kind it is also the key of the value's bucket.
	fieldKey
	val reflect.Value // cmpBytes, cmpDeep: the template's field
}

// inlineCmps is how many comparers a lookup keeps on its own stack; a
// template fixing more fields than this spills to the heap.
const inlineCmps = 4

// compile resolves tmpl and builds its matcher into buf (the [:0] of a
// stack array, or nil to allocate). Which list the lookup reads — one
// bucket of an index on a field the matcher fixes, or the whole type — is
// the store's choice (listLocked), made from the matcher. The matcher
// aliases buf: the compiler keeps buf on the caller's stack only while the
// matcher itself is never stored anywhere, so what must outlive the call
// (a parked waiter) compiles its own.
func compile(tmpl Entry, buf []comparer) (ti *typeInfo, m matcher, err error) {
	ti, tv, err := infoFor(tmpl)
	if err != nil {
		return nil, nil, err
	}
	m = buf
	for _, fi := range ti.fields {
		f := tv.Field(fi.index)
		if f.IsZero() {
			continue // wildcard
		}
		c := comparer{field: fi.index, kind: fi.kind}
		switch fi.kind {
		case cmpInt:
			c.bits = uint64(f.Int())
		case cmpUint:
			c.bits = f.Uint()
		case cmpFloat:
			c.bits = math.Float64bits(f.Float())
		case cmpBool:
			// Nothing to hold: false is the wildcard, so the field is true.
		case cmpString:
			c.str = f.String()
		default:
			c.val = f
		}
		m = append(m, c)
	}
	return ti, m, nil
}

// key returns the value m fixes ti's key field to, or "" when it leaves
// the key open.
func (m matcher) key(ti *typeInfo) string {
	for i := range m {
		if m[i].field == ti.keyField {
			return m[i].str
		}
	}
	return ""
}

// parkedMatcher compiles tmpl — which the caller has compiled once already,
// so it cannot fail — onto the heap, for a waiter that outlives the
// lookup's stack.
func parkedMatcher(tmpl Entry) matcher {
	_, m, _ := compile(tmpl, nil)
	return m
}

// match reports whether candidate cand (a struct value of the template's
// type) matches: every non-zero exported template field must equal the
// candidate's, by the rules of reflect.DeepEqual. It allocates nothing
// for the typed kinds.
func (m matcher) match(cand reflect.Value) bool {
	for i := range m {
		c := &m[i]
		f := cand.Field(c.field)
		var eq bool
		switch c.kind {
		case cmpInt:
			eq = f.Int() == int64(c.bits)
		case cmpUint:
			eq = f.Uint() == c.bits
		case cmpFloat:
			eq = f.Float() == math.Float64frombits(c.bits)
		case cmpBool:
			eq = f.Bool()
		case cmpString:
			eq = f.String() == c.str
		case cmpBytes:
			// The template's slice is non-nil (nil is the wildcard), and
			// DeepEqual tells a nil slice from an empty one.
			eq = !f.IsNil() && bytes.Equal(f.Bytes(), c.val.Bytes())
		default:
			eq = reflect.DeepEqual(c.val.Interface(), f.Interface())
		}
		if !eq {
			return false
		}
	}
	return true
}

// Match reports whether template tmpl matches entry e under JavaSpaces
// matching rules. Both must be values (or pointers to values) of the same
// struct type; differing types never match.
func Match(tmpl, e Entry) (bool, error) {
	var buf [inlineCmps]comparer
	ti, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return false, err
	}
	ci, cv, err := infoFor(e)
	if err != nil {
		return false, err
	}
	if ti.typ != ci.typ {
		return false, nil
	}
	return m.match(cv), nil
}

// deepCopy returns a deep copy of entry value v (a struct). An in-process
// caller's entries are copied on Write and on Read/Take so that it can
// never alias storage inside the space — the in-process analogue of
// JavaSpaces serialization. An entry that crossed a wire is not: its frame
// was the copy, so the store keeps what was decoded (WriteDecoded) and a
// service encodes the stored value into its reply (LookupShared).
// Unexported fields are not copied: they are not part of an entry.
func deepCopy(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	copierFor(v.Type()).copy(out, v)
	return out
}

// copyOut returns a deep copy of v as an Entry, allocated once: the copy
// is fresh, so the interface takes it without copying it again.
func copyOut(v reflect.Value) Entry { return enc.Interface(deepCopy(v)) }

// A copier is the deep copy of one type, compiled once: what shares no
// memory is copied in one assignment — a []byte payload in one move, where
// walking it by reflection costs a store per byte — and only pointers,
// maps, interfaces and the slices and structs that hold them are walked.
type copier struct {
	copy func(dst, src reflect.Value) // dst is the zero value, settable
}

var (
	copiers   sync.Map   // reflect.Type → *copier
	copiersMu sync.Mutex // held to compile
)

func copierFor(t reflect.Type) *copier {
	if c, ok := copiers.Load(t); ok {
		return c.(*copier)
	}
	copiersMu.Lock()
	defer copiersMu.Unlock()
	session := map[reflect.Type]*copier{}
	c := compileCopier(t, session)
	for t, c := range session {
		copiers.LoadOrStore(t, c)
	}
	return c
}

// plain reports whether assigning a t copies all of it an entry owns:
// scalars, strings (immutable), and arrays and all-exported structs of those.
// Channels, funcs and unsafe pointers are shared by assignment, as always.
func plain(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		return false
	case reflect.Array:
		return plain(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); !f.IsExported() || !plain(f.Type) {
				return false
			}
		}
	}
	return true
}

// compileCopier builds t's copier. It is entered in session before its
// parts are compiled, so a recursive type links to itself.
func compileCopier(t reflect.Type, session map[reflect.Type]*copier) *copier {
	if c, ok := copiers.Load(t); ok {
		return c.(*copier)
	}
	if c := session[t]; c != nil {
		return c
	}
	c := &copier{}
	session[t] = c
	switch {
	case plain(t):
		c.copy = func(dst, src reflect.Value) { dst.Set(src) }
	case t.Kind() == reflect.Pointer:
		elem := compileCopier(t.Elem(), session)
		c.copy = func(dst, src reflect.Value) {
			if !src.IsNil() {
				p := reflect.New(t.Elem())
				elem.copy(p.Elem(), src.Elem())
				dst.Set(p)
			}
		}
	case t.Kind() == reflect.Struct:
		type field struct {
			index int
			c     *copier
		}
		var fields []field
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fields = append(fields, field{i, compileCopier(f.Type, session)})
			}
		}
		c.copy = func(dst, src reflect.Value) {
			for _, f := range fields {
				f.c.copy(dst.Field(f.index), src.Field(f.index))
			}
		}
	case t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		c.copy = func(dst, src reflect.Value) {
			if !src.IsNil() {
				dst.SetBytes(append(make([]byte, 0, src.Len()), src.Bytes()...))
			}
		}
	case t.Kind() == reflect.Slice && plain(t.Elem()):
		c.copy = func(dst, src reflect.Value) {
			if !src.IsNil() {
				s := reflect.MakeSlice(t, src.Len(), src.Len())
				reflect.Copy(s, src)
				dst.Set(s)
			}
		}
	case t.Kind() == reflect.Slice:
		elem := compileCopier(t.Elem(), session)
		c.copy = func(dst, src reflect.Value) {
			if !src.IsNil() {
				s := reflect.MakeSlice(t, src.Len(), src.Len())
				for i := 0; i < src.Len(); i++ {
					elem.copy(s.Index(i), src.Index(i))
				}
				dst.Set(s)
			}
		}
	case t.Kind() == reflect.Array:
		elem := compileCopier(t.Elem(), session)
		c.copy = func(dst, src reflect.Value) {
			for i := 0; i < src.Len(); i++ {
				elem.copy(dst.Index(i), src.Index(i))
			}
		}
	case t.Kind() == reflect.Map:
		key, elem := compileCopier(t.Key(), session), compileCopier(t.Elem(), session)
		c.copy = func(dst, src reflect.Value) {
			if src.IsNil() {
				return
			}
			m := reflect.MakeMapWithSize(t, src.Len())
			for iter := src.MapRange(); iter.Next(); {
				k, v := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
				key.copy(k, iter.Key())
				elem.copy(v, iter.Value())
				m.SetMapIndex(k, v)
			}
			dst.Set(m)
		}
	default: // an interface: the copier is its dynamic type's
		c.copy = func(dst, src reflect.Value) {
			if !src.IsNil() {
				inner := reflect.New(src.Elem().Type()).Elem()
				copierFor(src.Elem().Type()).copy(inner, src.Elem())
				dst.Set(inner)
			}
		}
	}
	return c
}

// CopyEntry returns a deep copy of e as a value of the same struct type
// (never a pointer). It is exported for use by the remote space service.
func CopyEntry(e Entry) (Entry, error) {
	_, v, err := infoFor(e)
	if err != nil {
		return nil, err
	}
	return copyOut(v), nil
}

// TypeName returns the fully qualified struct type name of e, used as the
// indexing key in the space and on the wire by the remote space service.
func TypeName(e Entry) (string, error) {
	ti, _, err := infoFor(e)
	if err != nil {
		return "", err
	}
	return ti.name, nil
}

// IndexKey returns the value of e's `space:"index"` key field. ok is false
// when the type declares no key field or the field is zero (a wildcard in a
// template). The shard router uses this to decide between keyed routing and
// scatter-gather. It is the routing key only: within a shard the store
// indexes the key and, once a type is large, whichever other field lookups
// fix.
func IndexKey(e Entry) (key string, ok bool, err error) {
	ti, v, err := infoFor(e)
	if err != nil {
		return "", false, err
	}
	if ti.keyField < 0 {
		return "", false, nil
	}
	kf := v.Field(ti.keyField)
	if kf.IsZero() {
		return "", false, nil
	}
	return kf.String(), true, nil
}

// EncodedSize returns the size in bytes of entry e's message on a fresh
// connection or in a journal record, type definitions included.
func EncodedSize(e Entry) (int, error) {
	if _, _, err := infoFor(e); err != nil {
		return 0, err
	}
	b, err := enc.NewEncoder().Encode(nil, e)
	if err != nil {
		return 0, fmt.Errorf("tuplespace: encode %T: %w", e, err)
	}
	return len(b), nil
}
