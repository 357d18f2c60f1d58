package tuplespace

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// copyIntoSlow is the deep copy as it was before the compiled copiers: one
// reflective store per element, a []byte a byte at a time. It stays as the
// reference the compiled copy is held to.
func copyIntoSlow(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Ptr:
		if src.IsNil() {
			return
		}
		dst.Set(reflect.New(src.Type().Elem()))
		copyIntoSlow(dst.Elem(), src.Elem())
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			if src.Type().Field(i).IsExported() {
				copyIntoSlow(dst.Field(i), src.Field(i))
			}
		}
	case reflect.Slice:
		if src.IsNil() {
			return
		}
		dst.Set(reflect.MakeSlice(src.Type(), src.Len(), src.Len()))
		for i := 0; i < src.Len(); i++ {
			copyIntoSlow(dst.Index(i), src.Index(i))
		}
	case reflect.Map:
		if src.IsNil() {
			return
		}
		dst.Set(reflect.MakeMapWithSize(src.Type(), src.Len()))
		for iter := src.MapRange(); iter.Next(); {
			k := reflect.New(src.Type().Key()).Elem()
			copyIntoSlow(k, iter.Key())
			val := reflect.New(src.Type().Elem()).Elem()
			copyIntoSlow(val, iter.Value())
			dst.SetMapIndex(k, val)
		}
	case reflect.Interface:
		if src.IsNil() {
			return
		}
		inner := reflect.New(src.Elem().Type()).Elem()
		copyIntoSlow(inner, src.Elem())
		dst.Set(inner)
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			copyIntoSlow(dst.Index(i), src.Index(i))
		}
	default:
		dst.Set(src)
	}
}

func deepCopySlow(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	copyIntoSlow(out, v)
	return out
}

// sameValue is reflect.DeepEqual with the two differences a copy test
// needs: floats compare by their bits (a NaN is the same NaN), and it reads
// unexported fields too, where a copy must hold zero.
func sameValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex64, reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) && math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for iter := a.MapRange(); iter.Next(); {
			if other := b.MapIndex(iter.Key()); !other.IsValid() || !sameValue(iter.Value(), other) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	default:
		return a.Uint() == b.Uint()
	}
}

// scribble overwrites everything reachable from v that a copy could share
// with its source: slice elements, map values, pointees.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			v.SetMapIndex(k, reflect.Zero(v.Type().Elem()))
		}
		if v.Len() > 0 {
			v.SetMapIndex(v.MapKeys()[0], reflect.Value{})
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				scribble(v.Field(i))
			}
		}
	case reflect.Interface, reflect.String, reflect.Bool:
		// immutable, or only replaceable as a whole
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Complex64, reflect.Complex128:
		v.SetComplex(v.Complex() + 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() ^ 0x55)
	default:
		v.SetUint(v.Uint() ^ 0x55)
	}
}

// nested is what allKinds has no room for: slices, arrays and maps of
// things that must themselves be walked, a recursive pointer, and an
// interface holding a struct that holds a slice.
type nested struct {
	Docs   []doc
	Ptrs   []*innerEntry
	Grid   [2][]byte
	Index  map[string][]int
	ByKey  map[innerEntry]*doc
	Next   *nested
	Any    interface{}
	Names  []string
	hidden []byte
}

// copyZoo is the FuzzTemplateMatch value zoo — its committed corpus, and a
// few thousand more draws of the same generator — plus nested values.
func copyZoo(t *testing.T) []interface{} {
	t.Helper()
	var zoo []interface{}
	add := func(b []byte) {
		tmpl, cand := kindsPair(b)
		zoo = append(zoo, tmpl, cand)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTemplateMatch", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzTemplateMatch corpus: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add(raw) // the file's bytes, header and all, are as good a draw as any
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, allKindsFields)
		rng.Read(b)
		add(b)
	}
	one := 1
	leaf := &nested{Names: []string{"x"}, hidden: []byte{9}}
	zoo = append(zoo,
		nested{},
		nested{Docs: []doc{}, Index: map[string][]int{}, Names: []string{}},
		nested{
			Docs:   []doc{{Key: "a", ID: 1, Body: []byte{1, 2}}, {Key: "b"}},
			Ptrs:   []*innerEntry{nil, {X: 1, Y: "y"}},
			Grid:   [2][]byte{{1}, nil},
			Index:  map[string][]int{"k": {1, 2}, "nil": nil},
			ByKey:  map[innerEntry]*doc{{X: 1}: {Key: "p", Body: []byte{7}}, {X: 2}: nil},
			Next:   leaf,
			Any:    nested{Docs: []doc{{Body: []byte{5}}}, Any: &one},
			Names:  []string{"a", "b"},
			hidden: []byte{1},
		},
	)
	return zoo
}

// TestDeepCopyAgreesWithElementwise: over the zoo the compiled copy is the
// element-wise one — nil and empty told apart, pointers followed, unexported
// fields left zero — and shares nothing with its source: scribbling over
// every slice element, map value and pointee of the copy leaves the source
// as it was.
func TestDeepCopyAgreesWithElementwise(t *testing.T) {
	for i, e := range copyZoo(t) {
		src := reflect.ValueOf(e)
		got, want := deepCopy(src), deepCopySlow(src)
		if !sameValue(got, want) {
			t.Fatalf("value %d: compiled copy\n %#v\nelement-wise copy\n %#v", i, got, want)
		}
		scribble(got)
		if !sameValue(deepCopySlow(src), want) {
			t.Fatalf("value %d: writing to the copy changed the source: now\n %#v\nwas\n %#v", i, src, want)
		}
	}
}

var copySink Entry

// TestDeepCopyAllocations: a hand-off of an entry with a 1 KiB payload is
// the struct, the payload and the boxing — three allocations and one move,
// where the element-wise copy made a thousand reflective stores.
func TestDeepCopyAllocations(t *testing.T) {
	var e Entry = doc{Key: "job-1", ID: 1, Body: make([]byte, 1024)}
	if n := testing.AllocsPerRun(200, func() { copySink, _ = CopyEntry(e) }); n > 3 {
		t.Fatalf("copying a 1 KiB entry allocates %.0f times, want at most 3", n)
	}
	s := newRealSpace()
	mustWrite(t, s, e)
	var tmpl Entry = doc{Key: "job-1"}
	if n := testing.AllocsPerRun(200, func() { copySink, _ = s.ReadIfExists(tmpl, nil) }); n > 3 {
		t.Fatalf("reading a 1 KiB entry allocates %.0f times, want at most 3", n)
	}
}
