package enc

import (
	"bytes"
	"reflect"
	"testing"
)

// lendMsg is a call's wire struct: scalars beside a string and a byte
// slice, which a receiver may keep: a lent decode allocates the slice, and
// the string the first time its stream sends it.
type lendMsg struct {
	Name string
	Data []byte
	N    int
	Tok  [2]uint64
}

func init() { RegisterType(lendMsg{}) }

// TestLentDecodeAllocatesOnlyInterior: a *T encodes to the bytes the T
// does; DecodeLent hands a struct over as a *T from T's pool, allocating
// nothing for the struct itself once the pool holds one; Release zeroes it
// without touching what it pointed at; and the next lent decode holds
// nothing of the value released before it.
func TestLentDecodeAllocatesOnlyInterior(t *testing.T) {
	sent := lendMsg{Name: "job", Data: []byte{1, 2, 3}, N: 7, Tok: [2]uint64{4, 5}}
	byValue, err := NewEncoder().Encode(nil, sent)
	if err != nil {
		t.Fatal(err)
	}
	byPointer, err := NewEncoder().Encode(nil, &sent)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byValue, byPointer) {
		t.Fatalf("*T encodes to %x, T to %x", byPointer, byValue)
	}

	e, d := NewEncoder(), NewDecoder()
	first, _ := e.Encode(nil, sent) // defines the type
	later, _ := e.Encode(nil, sent) // the id alone
	if _, err := d.DecodeLent(first); err != nil {
		t.Fatal(err)
	}
	got, err := d.DecodeLent(later)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got.(*lendMsg)
	if !ok || !reflect.DeepEqual(*m, sent) {
		t.Fatalf("DecodeLent = %#v, want &%#v", got, sent)
	}
	name, data := m.Name, m.Data
	Release(m)
	if !reflect.DeepEqual(*m, lendMsg{}) {
		t.Fatalf("released value holds %#v", *m)
	}
	if name != "job" || !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("Release reached what the value pointed at: %q %v", name, data)
	}
	// The next lent decode of the type, likely into the value just
	// released, holds what its message says and nothing left over.
	sparse, _ := e.Encode(nil, lendMsg{N: 1})
	if again, err := d.DecodeLent(sparse); err != nil || !reflect.DeepEqual(again, &lendMsg{N: 1}) {
		t.Fatalf("DecodeLent after Release = %#v, %v; want &%#v", again, err, lendMsg{N: 1})
	}
	if plain, err := d.Decode(later); err != nil || !reflect.DeepEqual(plain, sent) {
		t.Fatalf("Decode = %#v, %v; want the value itself", plain, err)
	}

	// The race detector's pool drops values at random, so the count is
	// the plain build's.
	if raceEnabled {
		return
	}
	n := testing.AllocsPerRun(100, func() {
		v, err := d.DecodeLent(later)
		if err != nil {
			t.Fatal(err)
		}
		Release(v)
	})
	if n != 1 {
		t.Fatalf("a lent decode allocates %.0f times, want 1: the byte slice (the string repeats, so it comes from the decoder's table)", n)
	}
}

// lentField and plainField differ only in their template field's type: an
// enc.Lent, and the interface{} it stands in for.
type lentField struct {
	Tmpl Lent
	N    int
}

type plainField struct {
	Tmpl interface{}
	N    int
}

func init() {
	RegisterType(lentField{})
	RegisterType(plainField{})
}

// TestLentFieldIsLent: a Lent field encodes as an interface{} does, with
// the same fingerprint, and sends a *T as the T; DecodeLent puts a struct
// in it as a *T from T's pool, allocating nothing for it once the pool
// holds one, where Decode puts the T; and releasing the enclosing struct
// leaves the field's value alone — the receiver releases it on its own.
func TestLentFieldIsLent(t *testing.T) {
	tmpl := lendMsg{Name: "job", N: 7}
	if fingerprint(reflect.TypeOf(lentField{})) != fingerprint(reflect.TypeOf(plainField{})) {
		t.Fatal("a Lent field changes its struct's fingerprint")
	}
	// A connection's second message of a type is the value alone, with no
	// definition naming the type.
	later := func(v interface{}) []byte {
		t.Helper()
		e := NewEncoder()
		if _, err := e.Encode(nil, v); err != nil {
			t.Fatal(err)
		}
		b, err := e.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	asLent := later(lentField{Tmpl: tmpl, N: 1})
	if plain, byPointer := later(plainField{Tmpl: tmpl, N: 1}), later(lentField{Tmpl: &tmpl, N: 1}); !bytes.Equal(asLent, plain) || !bytes.Equal(asLent, byPointer) {
		t.Fatalf("a Lent field encodes to %x (%x holding a *T), an interface{} to %x", asLent, byPointer, plain)
	}
	e, d := NewEncoder(), NewDecoder()
	first, _ := e.Encode(nil, lentField{Tmpl: tmpl, N: 1})
	if v, err := NewDecoder().Decode(first); err != nil || !reflect.DeepEqual(v, lentField{Tmpl: tmpl, N: 1}) {
		t.Fatalf("Decode = %#v, %v; want the template as a value", v, err)
	}
	v, err := d.DecodeLent(first)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*lentField)
	lent, ok := got.Tmpl.(*lendMsg)
	if !ok || !reflect.DeepEqual(*lent, tmpl) {
		t.Fatalf("DecodeLent's template = %#v, want &%#v", got.Tmpl, tmpl)
	}
	Release(got)
	if !reflect.DeepEqual(*lent, tmpl) {
		t.Fatalf("releasing the enclosing struct reached its template: %#v", *lent)
	}
	Release(lent)

	if raceEnabled {
		return
	}
	n := testing.AllocsPerRun(100, func() {
		v, err := d.DecodeLent(asLent)
		if err != nil {
			t.Fatal(err)
		}
		Release(v.(*lentField).Tmpl)
		Release(v)
	})
	if n != 0 {
		t.Fatalf("a lent decode of a struct with a lent template allocates %.0f times, want 0", n)
	}
}
