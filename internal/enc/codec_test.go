package enc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

type inner struct {
	Name string
	N    int
}

// everyKind mixes every kind the plan compiler handles.
type everyKind struct {
	B    bool
	I    int
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	U    uint
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	Up   uintptr
	F32  float32
	F64  float64
	S    string
	Raw  []byte
	D    time.Duration
	T    time.Time
	In   inner
	Ptr  *inner
	PP   **int
	Ss   []string
	Fs   []float64
	Nest [][]byte
	Arr  [3]int16
	M    map[string]int
	MS   map[int]inner
	Any  interface{}
	Anys []interface{}
	Str  Stringer
	skip int //nolint:unused // unexported: must not cross
}

// Stringer is a non-empty interface type for a field.
type Stringer interface{ String() string }

type named string

func (n named) String() string { return string(n) }

type list struct {
	V    int
	Next *list
}

type unknownInside struct{ B int }

// selfEncoding encodes itself, so its exported fields are not its state.
type selfEncoding struct{ v int }

func (s selfEncoding) GobEncode() ([]byte, error) { return []byte{byte(s.v)}, nil }

// withChan has a field no plan can carry.
type withChan struct {
	N int
	C chan int
}

// Shapes a decoded value can take when the decoder hands it over (see
// Interface): a struct wider than a word, which the interface adopts; a
// one-word struct and a pointer-shaped one, which are copied; and a holder
// putting each inside an empty interface and one with methods.
type (
	wide          struct{ A, B int64 }
	oneWord       struct{ LeaseID uint64 }
	pointerShaped struct{ P *int }
	holder        struct {
		Any interface{}
		Str Stringer
	}
)

func (w wide) String() string { return fmt.Sprint(w.A, w.B) }

func init() {
	RegisterType(inner{})
	RegisterType(everyKind{})
	RegisterType(named(""))
	RegisterType(list{})
	RegisterType(wide{})
	RegisterType(oneWord{})
	RegisterType(pointerShaped{})
	RegisterType(holder{})
}

func fullValue() everyKind {
	seven := 7
	p := &seven
	return everyKind{
		B: true, I: -5, I8: -8, I16: -16, I32: -32, I64: -1 << 40,
		U: 5, U8: 8, U16: 16, U32: 32, U64: 1 << 60, Up: 9,
		F32: 1.5, F64: -2.25, S: "héllo", Raw: []byte{0, 1, 2},
		D: time.Hour, T: time.Unix(1700000000, 123).UTC(),
		In: inner{"in", 1}, Ptr: &inner{"ptr", 2}, PP: &p,
		Ss: []string{"a", ""}, Fs: []float64{1, 2.5}, Nest: [][]byte{{1}, nil},
		Arr: [3]int16{1, -2, 3},
		M:   map[string]int{"x": 1, "y": 2}, MS: map[int]inner{3: {"three", 3}},
		Any: inner{"any", 4}, Anys: []interface{}{int(1), "two", []byte{3}, nil, inner{"five", 5}},
		Str: named("str"),
	}
}

// pipe is an Encoder feeding a Decoder, as one direction of a connection.
type pipe struct {
	e *Encoder
	d *Decoder
}

func newPipe() pipe { return pipe{NewEncoder(), NewDecoder()} }

func (p pipe) send(t *testing.T, v interface{}) (interface{}, []byte) {
	t.Helper()
	msg, err := p.e.Encode(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := p.d.Decode(msg)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got, msg
}

func TestRoundTripEveryKind(t *testing.T) {
	p := newPipe()
	for _, v := range []interface{}{
		nil, true, "s", 42, int64(-1), uint8(200), 3.5, float32(0.5), []byte("raw"),
		[]string{"a"}, []int{1, 2}, []float64{0.25}, inner{"x", 1}, named("n"),
		fullValue(), everyKind{}, list{1, &list{2, &list{3, nil}}},
	} {
		got, msg := p.send(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T round trip:\n got %#v\nwant %#v", v, got, v)
		}
		if msg[0] != modePlan {
			t.Errorf("%T: message mode %d", v, msg[0])
		}
	}
}

// TestDecodeHandsOverEveryShape: every shape Interface tells apart round
// trips at the top level and inside interface fields, empty or with
// methods, and a decoded value outlives its message's bytes.
func TestDecodeHandsOverEveryShape(t *testing.T) {
	seven := 7
	p := newPipe()
	for _, v := range []interface{}{
		wide{1, 2}, oneWord{1 << 40}, pointerShaped{&seven},
		holder{Any: wide{3, 4}, Str: wide{5, 6}},
		holder{Any: oneWord{7}, Str: named("n")},
		holder{Any: pointerShaped{&seven}},
		holder{Any: holder{Any: wide{8, 9}}},
	} {
		msg, err := p.e.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.d.Decode(msg)
		if err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		for i := range msg {
			msg[i] = 0xa5
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip:\n got %#v\nwant %#v", got, v)
		}
	}
}

// TestInterfaceAdoptsOnlyWideStructs: Interface puts a wide struct's own
// storage in the interface and copies every other shape. Writing through
// the Value afterwards breaks Interface's contract on purpose, to see
// where the interface's value lives.
func TestInterfaceAdoptsOnlyWideStructs(t *testing.T) {
	w := reflect.New(reflect.TypeOf(wide{})).Elem()
	x := Interface(w)
	w.Set(reflect.ValueOf(wide{1, 2}))
	if x != (wide{1, 2}) {
		t.Errorf("a wide struct was copied: %#v", x)
	}
	for _, nonzero := range []interface{}{oneWord{1}, pointerShaped{new(int)}, int64(1), [2]int64{1, 2}} {
		v := reflect.New(reflect.TypeOf(nonzero)).Elem()
		x := Interface(v)
		v.Set(reflect.ValueOf(nonzero))
		if !reflect.ValueOf(x).IsZero() {
			t.Errorf("%T was not copied: %#v", nonzero, x)
		}
	}
}

// TestEmptyDecodesAsNil pins where a positional codec would naturally
// differ from gob and this one does not: an empty slice arrives nil, an
// empty map arrives empty and a nil one nil, the zero time arrives as the
// zero time. And where it deliberately does
// differ: gob flattened a pointer to a zero value to nil — a JavaSpaces
// template wildcard — and this codec delivers the pointer.
func TestEmptyDecodesAsNil(t *testing.T) {
	zero := 0
	p := &zero
	in := everyKind{Raw: []byte{}, Ss: []string{}, Nest: [][]byte{{}}, M: map[string]int{}, Anys: []interface{}{}, PP: &p}
	got, _ := newPipe().send(t, in)
	out := got.(everyKind)
	if out.Raw != nil || out.Ss != nil || out.Anys != nil || out.Nest[0] != nil {
		t.Errorf("empty slice did not decode as nil: %#v", out)
	}
	if out.M == nil || len(out.M) != 0 || out.MS != nil {
		t.Errorf("maps: empty must stay empty and nil stay nil: %#v %#v", out.M, out.MS)
	}
	if !out.T.IsZero() || out.T != (time.Time{}) {
		t.Errorf("zero time decoded as %#v", out.T)
	}
	if out.PP == nil || *out.PP == nil || **out.PP != 0 {
		t.Errorf("pointer to zero did not survive: %#v", out.PP)
	}
}

// TestTimeMatchesGob: a time.Time crosses exactly as gob carried it — same
// instant, same location, monotonic reading dropped.
func TestTimeMatchesGob(t *testing.T) {
	for _, tm := range []time.Time{
		time.Now(), time.Unix(100, 5), time.Unix(100, 5).UTC(),
		time.Unix(100, 5).In(time.FixedZone("", 3600)), time.Unix(100, 5).In(time.FixedZone("odd", 3601)),
	} {
		got, _ := newPipe().send(t, everyKind{T: tm})
		var buf bytes.Buffer
		var viaGob everyKind
		if err := gob.NewEncoder(&buf).Encode(everyKind{T: tm}); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.(everyKind).T, viaGob.T) {
			t.Errorf("time %v: codec %#v, gob %#v", tm, got.(everyKind).T, viaGob.T)
		}
	}
}

// TestTypeDefinedOncePerConnection: the registered name crosses with the
// first value of a type and never again.
func TestTypeDefinedOncePerConnection(t *testing.T) {
	p := newPipe()
	_, first := p.send(t, inner{"a", 1})
	_, second := p.send(t, inner{"a", 1})
	if !bytes.Contains(first, []byte("enc.inner")) {
		t.Fatalf("first use does not name the type: %q", first)
	}
	if p.e.DefinitionBytes() != 0 || bytes.Contains(second, []byte("enc.inner")) {
		t.Fatalf("second use defines the type again: %q", second)
	}
	if want := len("a") + 5; len(second) != want { // mode, 0 defs, id, len+"a", N
		t.Errorf("steady-state message is %d bytes, want %d: %v", len(second), want, second)
	}
	// A second connection starts from an empty table.
	if _, again := newPipe().send(t, inner{"a", 1}); !bytes.Equal(again, first) {
		t.Errorf("fresh connection encoded %v, want %v", again, first)
	}
}

// TestDecodeErrorsAreTypedAndLocal: each way a message can be wrong has
// its own error, and none of them poisons the connection's type table.
func TestDecodeErrorsAreTypedAndLocal(t *testing.T) {
	def, err := NewEncoder().Encode(nil, inner{"abc", 1})
	if err != nil {
		t.Fatal(err)
	}
	fpAt := bytes.Index(def, []byte("enc.inner")) + len("enc.inner")
	badFP := append([]byte(nil), def...)
	badFP[fpAt] ^= 0xff
	unknownName := bytes.Replace(def, []byte("enc.inner"), []byte("enc.outer"), 1)
	huge := []byte{modePlan, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f} // a 4 GiB string in 0 bytes

	cases := []struct {
		name  string
		prime bool // define enc.inner correctly first
		msg   []byte
		want  error
	}{
		{"empty", false, nil, ErrTruncated},
		{"bad mode", false, []byte{9}, ErrCorrupt},
		{"unknown type id", false, []byte{modePlan, 0, 7}, ErrUnknownTypeID},
		{"fingerprint mismatch", false, badFP, ErrFingerprint},
		{"truncated body", true, []byte{modePlan, 0, 1, 3, 'a'}, ErrTruncated},
		{"length beyond message", true, huge, ErrTruncated},
		{"trailing bytes", true, []byte{modePlan, 0, 1, 0, 2, 0}, ErrCorrupt},
		{"definition out of sequence", false, append([]byte{modePlan, 1, 5}, def[3:]...), ErrCorrupt},
		{"corrupt gob", false, []byte{1, 1, 2, 3}, ErrCorrupt}, // mode 1 was a gob stream's
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder()
			if tc.prime {
				if _, err := d.Decode(def); err != nil {
					t.Fatal(err)
				}
			}
			before := len(d.types)
			_, err := d.Decode(tc.msg)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			// The same connection still decodes the next good message.
			e := NewEncoder()
			for i := 0; i < len(d.types); i++ { // step the encoder's ids past the table
				e.order = append(e.order, nil)
			}
			next, err := e.Encode(nil, named("after"))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := d.Decode(next); err != nil || got != named("after") {
				t.Errorf("after the bad message (table %d→%d): %v, %v", before, len(d.types), got, err)
			}
		})
	}

	var ute *UnregisteredTypeError
	if _, err := NewDecoder().Decode(unknownName); !errors.As(err, &ute) || ute.Type != "gospaces/internal/enc.outer" {
		t.Errorf("unknown name: %v", err)
	}
}

// TestRegisterTypeRefusesWhatNoPlanCarries: a type the plan compiler
// declines is refused at registration — a panic naming the type and, inside
// a struct, the field — and is left out of the registry. A value of a type
// never registered fails its encode naming the type, and the connection
// carries on.
func TestRegisterTypeRefusesWhatNoPlanCarries(t *testing.T) {
	for _, tc := range []struct {
		v    interface{}
		want string
	}{
		{selfEncoding{v: 9}, "enc.selfEncoding encodes itself"},
		{withChan{}, "enc.withChan.C"},
		{complex(1, 2), "complex128"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("RegisterType(%T) panicked with %q, want it to name %q", tc.v, msg, tc.want)
				}
			}()
			RegisterType(tc.v)
		}()
		if IsRegistered(tc.v) {
			t.Errorf("%T is registered after the refusal", tc.v)
		}
	}

	p := newPipe()
	_, err := p.e.Encode(nil, everyKind{Any: unknownInside{B: 1}})
	var ute *UnregisteredTypeError
	if !errors.As(err, &ute) || ute.Type != "enc.unknownInside" {
		t.Fatalf("unregistered type inside an interface: %v", err)
	}
	if !strings.Contains(err.Error(), "RegisterType(enc.unknownInside{})") {
		t.Errorf("error is not actionable: %v", err)
	}
	if got, _ := p.send(t, inner{"still", 1}); got != (inner{"still", 1}) {
		t.Errorf("connection unusable after a failed encode: %#v", got)
	}
}

// TestCyclicValueFailsCleanly: gob overflowed the stack on a cycle; the
// depth bound turns it into an error.
func TestCyclicValueFailsCleanly(t *testing.T) {
	l := &list{V: 1}
	l.Next = l
	if _, err := NewEncoder().Encode(nil, *l); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cyclic value: %v", err)
	}
}

func TestFingerprintFollowsLayout(t *testing.T) {
	type a struct {
		X int
		Y string
	}
	type renamed struct {
		X int
		Z string
	}
	type retyped struct {
		X int64
		Y string
	}
	type reordered struct {
		Y string
		X int
	}
	type same struct {
		X int
		Y string
		z bool //nolint:unused // unexported fields are not layout
	}
	base := fingerprint(reflect.TypeOf(a{}))
	for _, v := range []interface{}{renamed{}, retyped{}, reordered{}} {
		if fingerprint(reflect.TypeOf(v)) == base {
			t.Errorf("%T fingerprints like a", v)
		}
	}
	if fingerprint(reflect.TypeOf(same{})) != base {
		t.Error("an unexported field changed the fingerprint")
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	p := newPipe()
	v := everyKind{S: "job-0001", I: 7, Raw: make([]byte, 64), Any: inner{"x", 1}}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = p.e.Encode(buf[:0], v); err != nil {
			b.Fatal(err)
		}
		if _, err := p.d.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRollbackForgetsUnsentDefinitions: a message encoded but never sent
// (the transport refused the frame) must not leave the sender believing the
// peer knows the types it defined.
func TestRollbackForgetsUnsentDefinitions(t *testing.T) {
	p := newPipe()
	p.send(t, named("kept")) // id 1 stays
	if _, err := p.e.Encode(nil, inner{"never sent", 1}); err != nil {
		t.Fatal(err)
	}
	p.e.Rollback()
	got, msg := p.send(t, inner{"sent", 2})
	if got != (inner{"sent", 2}) || !bytes.Contains(msg, []byte("enc.inner")) {
		t.Fatalf("after rollback: %#v, message %q", got, msg)
	}
	if got, _ := p.send(t, named("still")); got != named("still") {
		t.Fatalf("earlier definition lost: %#v", got)
	}
}
