package tuplespace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type (
	label string
	count int32
	blob  []byte
)

// allKinds has a field of every kind the compiled matcher tells apart,
// named types of the typed kinds, everything that falls back to
// reflect.DeepEqual, and an unexported field neither matcher may look at.
type allKinds struct {
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	UP     uintptr
	F32    float32
	F64    float64
	B      bool
	S      string
	Bytes  []byte
	Label  label
	Count  count
	Blob   blob
	Floats []float64
	P      *int
	Inner  innerEntry
	M      map[string]int
	Any    interface{}
	Arr    [2]int
	C      complex128
	hidden int
}

// set sets field f of e to the pick'th value (mod 4) of that field's
// small domain; pick 0 is always the zero value, the wildcard in a template.
func (e *allKinds) set(f int, pick byte) {
	p := int(pick % 4)
	negZero := math.Copysign(0, -1)
	switch f {
	case 0:
		e.I = [...]int{0, 1, -1, math.MinInt}[p]
	case 1:
		e.I8 = [...]int8{0, 1, -1, math.MinInt8}[p]
	case 2:
		e.I16 = [...]int16{0, 1, -1, math.MaxInt16}[p]
	case 3:
		e.I32 = [...]int32{0, 1, -1, math.MinInt32}[p]
	case 4:
		e.I64 = [...]int64{0, 1, -1, math.MaxInt64}[p]
	case 5:
		e.U = [...]uint{0, 1, 2, math.MaxUint}[p]
	case 6:
		e.U8 = [...]uint8{0, 1, 2, math.MaxUint8}[p]
	case 7:
		e.U16 = [...]uint16{0, 1, 2, math.MaxUint16}[p]
	case 8:
		e.U32 = [...]uint32{0, 1, 2, math.MaxUint32}[p]
	case 9:
		e.U64 = [...]uint64{0, 1, 2, math.MaxUint64}[p]
	case 10:
		e.UP = [...]uintptr{0, 1, 2, math.MaxUint32}[p]
	case 11:
		e.F32 = [...]float32{0, 1.5, float32(math.NaN()), float32(negZero)}[p]
	case 12:
		e.F64 = [...]float64{0, 1.5, math.NaN(), negZero}[p]
	case 13:
		e.B = p%2 == 1
	case 14:
		e.S = [...]string{"", "a", "b", "ab"}[p]
	case 15:
		e.Bytes = [...][]byte{nil, {}, {1}, {1, 2}}[p]
	case 16:
		e.Label = [...]label{"", "a", "b", "ab"}[p]
	case 17:
		e.Count = [...]count{0, 1, -1, math.MaxInt32}[p]
	case 18:
		e.Blob = [...]blob{nil, {}, {1}, {1, 2}}[p]
	case 19:
		e.Floats = [...][]float64{nil, {}, {1}, {math.NaN()}}[p]
	case 20:
		one, two := 1, 2
		e.P = [...]*int{nil, &one, &two, &one}[p]
	case 21:
		e.Inner = [...]innerEntry{{}, {X: 1}, {Y: "y"}, {X: 1, Y: "y"}}[p]
	case 22:
		e.M = [...]map[string]int{nil, {}, {"k": 1}, {"k": 2}}[p]
	case 23:
		e.Any = [...]interface{}{nil, 1, "s", innerEntry{X: 1}}[p]
	case 24:
		e.Arr = [...][2]int{{}, {1, 0}, {0, 1}, {1, 1}}[p]
	case 25:
		e.C = [...]complex128{0, 1i, 1, complex(math.NaN(), 0)}[p]
	case 26:
		e.hidden = p
	}
}

const allKindsFields = 27

// kindsPair decodes a template and a candidate from b, one byte per field
// (missing bytes read as zero). Bits 0–1 pick the template's value and bit
// 2 forces the wildcard, so half the template is wildcards; bits 3–4 pick
// the candidate's value, and unless bits 5–7 are all zero the candidate
// takes the template's pick instead — so that whole-entry matches, and
// near misses on a single field, are common rather than one in millions.
func kindsPair(b []byte) (tmpl, cand allKinds) {
	for f := 0; f < allKindsFields; f++ {
		var x byte
		if f < len(b) {
			x = b[f]
		}
		tp, cp := x&3, x>>3&3
		if x&4 != 0 {
			tp = 0
		}
		if x>>5 != 0 && tp != 0 {
			cp = tp
		}
		tmpl.set(f, tp)
		cand.set(f, cp)
	}
	return tmpl, cand
}

// agree runs both matchers over one pair and reports (compiled, reference).
func agree(t testing.TB, tmpl, cand allKinds) (bool, bool) {
	t.Helper()
	var buf [inlineCmps]comparer
	_, m, err := compile(tmpl, buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	return m.match(reflect.ValueOf(cand)), matchesReflective(reflect.ValueOf(tmpl), reflect.ValueOf(cand))
}

// TestCompiledMatcherAgreesWithReflective is the differential test: over
// random pairs of the all-kinds struct the compiled matcher and the
// reflective reference must give the same answer, and both answers must
// actually occur.
func TestCompiledMatcherAgreesWithReflective(t *testing.T) {
	var yes, no int
	f := func(b []byte) bool {
		tmpl, cand := kindsPair(b)
		got, want := agree(t, tmpl, cand)
		if want {
			yes++
		} else {
			no++
		}
		if got != want {
			t.Logf("compiled %v, reference %v\n tmpl %+v\n cand %+v", got, want, tmpl, cand)
		}
		return got == want
	}
	gen := func(args []reflect.Value, r *rand.Rand) {
		b := make([]byte, allKindsFields)
		r.Read(b)
		args[0] = reflect.ValueOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000, Values: gen}); err != nil {
		t.Fatal(err)
	}
	if yes < 500 || no < 500 {
		t.Fatalf("%d matches and %d mismatches: the generator no longer exercises both", yes, no)
	}
}

// TestMatchSemantics pins the corners of the rule by name, through the
// public Match, so a change to the reference and the compiled matcher
// together still has to get past it.
func TestMatchSemantics(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	one, uno := 1, 1
	cases := []struct {
		name       string
		tmpl, cand allKinds
		want       bool
	}{
		{"empty template matches anything", allKinds{}, allKinds{I: 3, S: "x", Bytes: []byte{1}}, true},
		{"zero int is a wildcard", allKinds{S: "x"}, allKinds{I: 7, S: "x"}, true},
		{"int mismatch", allKinds{I8: 1}, allKinds{I8: 2}, false},
		{"uint across the sign bit", allKinds{U64: math.MaxUint64}, allKinds{U64: math.MaxUint64}, true},
		{"NaN template matches nothing, not even NaN", allKinds{F64: nan}, allKinds{F64: nan}, false},
		{"NaN float32 likewise", allKinds{F32: float32(nan)}, allKinds{F32: float32(nan)}, false},
		{"NaN candidate under a wildcard is fine", allKinds{S: "x"}, allKinds{S: "x", F64: nan}, true},
		{"minus zero never excludes plus zero", allKinds{F64: negZero, S: "x"}, allKinds{S: "x"}, true},
		{"false bool is a wildcard", allKinds{S: "x"}, allKinds{S: "x", B: true}, true},
		{"true bool must be true", allKinds{B: true}, allKinds{}, false},
		{"nil bytes are a wildcard", allKinds{S: "x"}, allKinds{S: "x", Bytes: []byte{9}}, true},
		{"empty non-nil bytes do not match nil", allKinds{Bytes: []byte{}}, allKinds{}, false},
		{"empty non-nil bytes match empty non-nil", allKinds{Bytes: []byte{}}, allKinds{Bytes: []byte{}}, true},
		{"bytes by content", allKinds{Bytes: []byte{1, 2}}, allKinds{Bytes: []byte{1, 2}}, true},
		{"bytes by content, differing", allKinds{Bytes: []byte{1, 2}}, allKinds{Bytes: []byte{1, 3}}, false},
		{"named byte slice", allKinds{Blob: blob{1}}, allKinds{Blob: blob{1}}, true},
		{"named string", allKinds{Label: "a"}, allKinds{Label: "b"}, false},
		{"pointer by pointee", allKinds{P: &one}, allKinds{P: &uno}, true},
		{"pointer against nil", allKinds{P: &one}, allKinds{}, false},
		{"nested struct whole", allKinds{Inner: innerEntry{X: 1}}, allKinds{Inner: innerEntry{X: 1, Y: "y"}}, false},
		{"map by content", allKinds{M: map[string]int{"k": 1}}, allKinds{M: map[string]int{"k": 1}}, true},
		{"empty map is not nil map", allKinds{M: map[string]int{}}, allKinds{}, false},
		{"interface by dynamic value", allKinds{Any: "s"}, allKinds{Any: "s"}, true},
		{"interface by dynamic type", allKinds{Any: 1}, allKinds{Any: int8(1)}, false},
		{"float slice holding NaN", allKinds{Floats: []float64{nan}}, allKinds{Floats: []float64{nan}}, false},
		{"array", allKinds{Arr: [2]int{0, 1}}, allKinds{Arr: [2]int{0, 1}}, true},
		{"unexported field ignored", allKinds{S: "x", hidden: 1}, allKinds{S: "x", hidden: 2}, true},
	}
	for _, c := range cases {
		got, err := Match(c.tmpl, c.cand)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
		if ref := matchesReflective(reflect.ValueOf(c.tmpl), reflect.ValueOf(c.cand)); ref != c.want {
			t.Errorf("%s: the reference says %v, want %v", c.name, ref, c.want)
		}
	}
	if ok, _ := Match(task{Job: "a"}, result{Job: "a"}); ok {
		t.Error("templates match entries of another type")
	}
}

// TestMatchAllocatesNothingPerCandidate: with every typed kind fixed in
// the template — more fields than the stack buffer holds — compiling costs
// at most the one spill and matching a candidate costs nothing.
func TestMatchAllocatesNothingPerCandidate(t *testing.T) {
	tmpl := allKinds{I: 1, I8: 1, I16: 1, I32: 1, I64: 1, U: 1, U8: 1, U16: 1, U32: 1, U64: 1, UP: 1,
		F32: 1.5, F64: 1.5, B: true, S: "a", Bytes: []byte{1, 2}, Label: "a", Count: 1, Blob: blob{1}}
	cand := reflect.ValueOf(tmpl)
	_, m, err := compile(tmpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 19 || !m.match(cand) {
		t.Fatalf("%d comparers, match %v", len(m), m.match(cand))
	}
	if n := testing.AllocsPerRun(1000, func() {
		if !m.match(cand) {
			t.Fatal("no match")
		}
	}); n != 0 {
		t.Fatalf("match allocates %.1f times per candidate, want 0", n)
	}
	var small Entry = allKinds{S: "a", I: 1}
	if n := testing.AllocsPerRun(1000, func() {
		var buf [inlineCmps]comparer
		if _, m, _ := compile(small, buf[:0]); !m.match(cand) {
			t.Fatal("no match")
		}
	}); n != 0 {
		t.Fatalf("compiling a two-field template allocates %.1f times, want 0", n)
	}
}

// FuzzTemplateMatch is the differential test with the fuzzer choosing the
// pair. The seed corpus under testdata/fuzz holds one input per corner
// TestMatchSemantics names.
func FuzzTemplateMatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x21, 0x22, 0x23})
	f.Fuzz(func(t *testing.T, b []byte) {
		tmpl, cand := kindsPair(b)
		if got, want := agree(t, tmpl, cand); got != want {
			t.Fatalf("compiled %v, reference %v\n tmpl %+v\n cand %+v", got, want, tmpl, cand)
		}
	})
}
