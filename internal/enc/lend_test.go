package enc

import (
	"bytes"
	"reflect"
	"testing"
)

// lendMsg is a call's wire struct: scalars beside a string and a byte
// slice, which a lent decode still allocates because a receiver may keep
// them.
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
	if n != 2 {
		t.Fatalf("a lent decode allocates %.0f times, want 2: the string and the byte slice", n)
	}
}
