package enc_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/enc"
	_ "gospaces/internal/experiments" // links every package that registers a wire type
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// benchTask and benchResult are the benchmark module's entry types
// (bench/inputs.go), which this module cannot import.
type benchTask struct {
	Job     string `space:"index"`
	ID      int
	Payload []byte
}

type benchResult struct {
	Job     string `space:"index"`
	ID      int
	Payload []byte
}

// withPointer pins the one deliberate difference from gob (see
// TestWireDeliversWhatGobDelivered).
type withPointer struct {
	Name string
	ID   *int
}

type neverRegistered struct{ X int }

func init() {
	transport.RegisterType(benchTask{})
	transport.RegisterType(benchResult{})
	transport.RegisterType(withPointer{})
}

// wireTypes are the registered names the equivalence test must cover, so a
// registration that moves or vanishes fails the test instead of shrinking it.
var wireTypes = []string{
	"gospaces/internal/space.writeArgs", "gospaces/internal/space.lookupArgs",
	"gospaces/internal/space.txnArgs", "gospaces/internal/space.leaseArgs",
	"gospaces/internal/space.writeReply", "gospaces/internal/space.lookupReply",
	"gospaces/internal/space.txnReply", "gospaces/internal/space.countReply",
	"gospaces/internal/space.bulkReply", "gospaces/internal/space.countsReply",
	"gospaces/internal/replica.appendArgs", "gospaces/internal/replica.appendReply",
	"gospaces/internal/replica.heartbeatArgs", "gospaces/internal/replica.syncArgs",
	"gospaces/internal/discovery.ServiceItem",
	"gospaces/internal/worker.SignalArgs", "gospaces/internal/nodeconfig.Bundle",
	"gospaces/internal/apps/montecarlo.Task", "gospaces/internal/apps/montecarlo.Result",
	"gospaces/internal/apps/raytrace.Task", "gospaces/internal/apps/raytrace.Result",
	"gospaces/internal/apps/pagerank.Task", "gospaces/internal/apps/pagerank.Result",
	"gospaces/internal/transport.Framed",
}

// registered returns every RegisterType'd type in the test binary by wire
// name, sorted, failing if one of wireTypes is missing. Each is registered
// with gob too, which must know it inside an interface for viaGob.
func registered(t testing.TB) []reflect.Type {
	t.Helper()
	byName := map[string]reflect.Type{}
	for _, rt := range enc.RegisteredTypes() {
		byName[rt.PkgPath()+"."+rt.Name()] = rt
		gob.Register(reflect.Zero(rt).Interface())
	}
	for _, name := range wireTypes {
		if byName[name] == nil {
			t.Fatalf("wire type %s is not registered in this binary", name)
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	types := make([]reflect.Type, len(names))
	for i, name := range names {
		types[i] = byName[name]
	}
	return types
}

// filler builds values of arbitrary registered types from a PRNG stream.
// With empties set, every slice and map it makes is empty but non-nil.
type filler struct {
	rng     *rand.Rand
	empties bool
	depth   int
}

func (f *filler) value(t reflect.Type) interface{} {
	v := reflect.New(t).Elem()
	f.fill(v)
	return v.Interface()
}

func (f *filler) fill(v reflect.Value) {
	f.depth++
	defer func() { f.depth-- }()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.rng.Intn(100) + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(f.rng.Intn(100) + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.rng.Intn(1000)) / 8)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.rng.Intn(1000)))
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			// Local and UTC by turns: gob keeps the location and so must we.
			tm := time.Unix(1_700_000_000+int64(f.rng.Intn(1000)), int64(f.rng.Intn(1000)))
			if f.rng.Intn(2) == 0 {
				tm = tm.UTC()
			}
			v.Set(reflect.ValueOf(tm))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Slice:
		n := 2
		if f.empties {
			n = 0
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2 && !f.empties; i++ {
			k, el := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(el)
			m.SetMapIndex(k, el)
		}
		v.Set(m)
	case reflect.Pointer:
		if f.depth > 6 {
			return // a recursive type: stop somewhere
		}
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Interface:
		// What entries are in this tree: an application struct, or raw bytes.
		if v.NumMethod() != 0 {
			return // a non-empty interface (this package's own test types): leave nil
		}
		if f.depth > 4 || f.rng.Intn(3) == 0 {
			v.Set(reflect.ValueOf([]byte{1, 2, 3}))
			return
		}
		v.Set(reflect.ValueOf(f.value(reflect.TypeOf(montecarlo.Task{}))))
	}
}

// viaGob is the parent commit's wire, kept as the reference: every payload
// went through a fresh gob stream inside an envelope, once per direction.
func viaGob(t testing.TB, v interface{}) interface{} {
	t.Helper()
	type envelope struct{ V interface{} }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope{V: v}); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return out.V
}

// bindings returns an echo service reached over the in-process network and
// over loopback TCP, and a function returning what the handler last saw.
// The echo answers with the argument it was lent, out of its Framed if it
// came in one.
func bindings(t *testing.T) (map[string]transport.Client, func() interface{}) {
	t.Helper()
	var mu sync.Mutex
	var seen interface{}
	srv := transport.NewServer()
	srv.Handle("echo", func(arg interface{}) (interface{}, error) {
		mu.Lock()
		seen = kept(arg)
		mu.Unlock()
		inner, _, _ := transport.Unframe(arg)
		return inner, nil
	})
	network := transport.NewNetwork(vclock.NewReal(), transport.Loopback())
	network.Listen("echo", srv)
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := transport.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close(); ln.Close() })
	return map[string]transport.Client{"inproc": network.Dial("echo"), "tcp": tcp}, func() interface{} {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

// kept copies what a handler was lent out of the structs the transport
// releases once the reply is written: a *T into a *T of its own, and the
// struct in each of its enc.Lent fields likewise, inside its Framed if it
// came in one.
func kept(v interface{}) interface{} {
	if f, ok := v.(transport.Framed); ok {
		f.Arg = kept(f.Arg)
		return f
	}
	p := reflect.ValueOf(v)
	if p.Kind() != reflect.Pointer || p.IsNil() {
		return v
	}
	c := reflect.New(p.Type().Elem())
	c.Elem().Set(p.Elem())
	if c.Elem().Kind() == reflect.Struct {
		for i := 0; i < c.Elem().NumField(); i++ {
			if f := c.Elem().Field(i); f.Type() == lentType && !f.IsNil() {
				f.Set(reflect.ValueOf(kept(f.Interface())))
			}
		}
	}
	return c.Interface()
}

// lent is what a call delivers for a value gob delivered as want: a
// struct arrives as a *T (see enc.DecodeLent), and so does a struct in
// one of its enc.Lent fields; anything else as itself.
func lent(want interface{}) interface{} {
	v := reflect.ValueOf(want)
	if v.Kind() != reflect.Struct || v.Type() == reflect.TypeOf(time.Time{}) {
		return want
	}
	p := reflect.New(v.Type())
	p.Elem().Set(v)
	for i := 0; i < v.NumField(); i++ {
		if f := p.Elem().Field(i); f.Type() == lentType && !f.IsNil() {
			f.Set(reflect.ValueOf(lent(f.Interface())))
		}
	}
	return p.Interface()
}

var lentType = reflect.TypeOf((*enc.Lent)(nil)).Elem()

// views returns the non-empty View fields of a decoded struct; the wire
// structs carry one only at the top.
func views(x interface{}) []enc.View {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Struct {
		return nil
	}
	var out []enc.View
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == viewType && f.Len() > 0 {
			out = append(out, f.Bytes())
		}
	}
	return out
}

var viewType = reflect.TypeOf(enc.View(nil))

// withoutViews returns a decoded struct with its View fields cleared.
func withoutViews(x interface{}) interface{} {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Struct {
		return x
	}
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	for i := 0; i < c.NumField(); i++ {
		if f := c.Field(i); f.Type() == viewType {
			f.SetZero()
		}
	}
	return c.Interface()
}

// aliases reports whether view is a run of msg's own memory.
func aliases(view enc.View, msg []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(msg)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return at >= start && at+uintptr(len(view)) <= start+uintptr(len(msg))
}

// TestWireDeliversWhatGobDelivered sends every registered wire type in the
// tree — zero, populated, and with empty-but-non-nil slices and maps —
// through both bindings and requires the argument the handler sees and the
// result the caller sees to be exactly what the gob wire handed them, a
// struct as a pointer to it (lent).
func TestWireDeliversWhatGobDelivered(t *testing.T) {
	clients, handlerSaw := bindings(t)
	check := func(name string, v interface{}) {
		t.Helper()
		want := lent(viaGob(t, v))
		for binding, c := range clients {
			res, err := c.Call("echo", v)
			if err != nil {
				t.Errorf("%s %s: %v", binding, name, err)
				continue
			}
			if got := handlerSaw(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: handler saw\n %#v\ngob delivered\n %#v", binding, name, got, want)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s %s: caller got\n %#v\ngob delivered\n %#v", binding, name, res, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, rt := range registered(t) {
		switch {
		case rt == reflect.TypeOf(withPointer{}):
			continue // below
		case rt == reflect.TypeOf(transport.Framed{}):
			continue // TestFramedCrossesInTheHeader
		case rt.PkgPath() == "gospaces/internal/enc":
			continue // the codec's own unit-test types
		}
		check(rt.String()+" zero", reflect.Zero(rt).Interface())
		check(rt.String()+" filled", (&filler{rng: rng}).value(rt))
		check(rt.String()+" empties", (&filler{rng: rng, empties: true}).value(rt))
	}
	check("nil", nil)
	check("raw bytes", []byte{1, 2, 3})
	check("empty raw bytes", []byte{}) // nil on arrival, as with gob
	check("int", 7)
	check("string", "s")
	check("[]float64", []float64{1.5, 2.5})

	// The one place this wire deliberately differs. gob flattens pointers,
	// so a pointer to a zero value arrived nil — for an entry, a field the
	// writer set to 0 turning into a template wildcard. The codec sends a
	// presence byte and delivers the pointer.
	zero, one := 0, 1
	check("pointer to non-zero", withPointer{Name: "n", ID: &one})
	check("nil pointer", withPointer{Name: "n"})
	if got := viaGob(t, withPointer{ID: &zero}).(withPointer); got.ID != nil {
		t.Fatalf("gob kept a pointer to zero: %#v", got)
	}
	for binding, c := range clients {
		res, err := c.Call("echo", withPointer{ID: &zero})
		if got, ok := res.(*withPointer); err != nil || !ok || got.ID == nil || *got.ID != 0 {
			t.Errorf("%s: pointer to zero arrived as %#v, %v", binding, res, err)
		}
	}
}

// TestJournalRecordsDeliverWhatGobDelivered is the same equivalence for the
// other place entries leave the process: the journal record (WAL, snapshot,
// replica ship), which was a gob stream per record until it moved onto this
// codec. Every registered struct type is written and taken with tokens on
// a journaled space; a standby fed the two records
// and a recovery from them must hold, and answer the take's retry with,
// exactly what a gob record of the stored entry delivered.
func TestJournalRecordsDeliverWhatGobDelivered(t *testing.T) {
	clk := vclock.NewReal()
	tok := func(seq uint64) tuplespace.OpToken { return tuplespace.OpToken{Client: "c", Seq: seq} }
	check := func(name string, v interface{}) {
		t.Helper()
		stored, err := tuplespace.CopyEntry(v) // what a space keeps of v: its exported fields
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := viaGob(t, stored)
		any := reflect.Zero(reflect.TypeOf(v)).Interface() // the template matching everything

		src, log := tuplespace.New(clk), &recordLog{}
		if err := src.AttachJournal(tuplespace.NewJournalSink(log)); err != nil {
			t.Fatal(err)
		}
		if _, err := src.WriteTok(v, nil, tuplespace.Forever, tok(1)); err != nil {
			t.Errorf("%s: journaled write: %v", name, err)
			return
		}
		if _, err := src.TakeTok(any, nil, time.Second, tok(2)); err != nil || len(log.recs) != 2 {
			t.Errorf("%s: journaled take: %v (%d records)", name, err, len(log.recs))
			return
		}

		standby := tuplespace.New(clk)
		a := tuplespace.NewApplier(standby)
		if err := a.Apply(log.recs[0]); err != nil {
			t.Errorf("%s: apply write: %v", name, err)
			return
		}
		if got, err := standby.ReadIfExists(any, nil); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: standby holds\n %#v (%v)\ngob delivered\n %#v", name, got, err, want)
		}
		if err := a.Apply(log.recs[1]); err != nil {
			t.Errorf("%s: apply take: %v", name, err)
			return
		}
		if got, err := standby.TakeTok(any, nil, time.Millisecond, tok(2)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the take's memo at the standby answers\n %#v (%v)\ngob delivered\n %#v", name, got, err, want)
		}

		recovered := tuplespace.New(clk)
		if n, err := tuplespace.ReplayRecords(log.recs[:1], recovered); err != nil || n != 1 {
			t.Errorf("%s: recovery: %d entries, %v", name, n, err)
			return
		}
		if got, err := recovered.ReadIfExists(any, nil); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered\n %#v (%v)\ngob delivered\n %#v", name, got, err, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, rt := range registered(t) {
		if rt.Kind() != reflect.Struct || rt == reflect.TypeOf(withPointer{}) || rt.PkgPath() == "gospaces/internal/enc" {
			continue // not an entry; pinned in TestWireDeliversWhatGobDelivered; the codec's own test types
		}
		check(rt.String()+" zero", reflect.Zero(rt).Interface())
		check(rt.String()+" filled", (&filler{rng: rng}).value(rt))
		check(rt.String()+" empties", (&filler{rng: rng, empties: true}).value(rt))
	}
}

// recordLog is a journal sink that keeps a copy of every record: the
// payload is the journal's again once Append returns.
type recordLog struct{ recs [][]byte }

func (l *recordLog) Append(p []byte) error {
	l.recs = append(l.recs, append([]byte(nil), p...))
	return nil
}

// TestFramedCrossesInTheHeader: the deadline and priority of a Framed
// argument travel as header fields and come out as the Framed the handler
// has always received. The header carries an instant, not a location: the
// deadline arrives equal, in the local zone, whatever zone it left in
// (gob kept the zone; nothing reads a deadline's zone).
func TestFramedCrossesInTheHeader(t *testing.T) {
	clients, handlerSaw := bindings(t)
	inner := montecarlo.Task{Job: "j", ID: 3}
	for _, deadline := range []time.Time{time.Now().Add(time.Hour), time.Unix(5, 7).UTC(), {}} {
		sent := transport.Frame(inner, deadline, transport.PriHigh)
		for binding, c := range clients {
			if _, err := c.Call("echo", sent); err != nil {
				t.Fatalf("%s: %v", binding, err)
			}
			arg, gotDeadline, pri := transport.Unframe(handlerSaw())
			if !reflect.DeepEqual(arg, &inner) || pri != transport.PriHigh || !gotDeadline.Equal(deadline) {
				t.Errorf("%s: handler saw (%#v, %v, %d), sent (%#v, %v, %d)", binding, arg, gotDeadline, pri, inner, deadline, transport.PriHigh)
			}
			if !deadline.IsZero() && gotDeadline.Location() != time.Local {
				t.Errorf("%s: deadline arrived in %v", binding, gotDeadline.Location())
			}
		}
	}
	// Nothing to carry: no frame, and the handler sees the bare argument.
	for binding, c := range clients {
		if _, err := c.Call("echo", transport.Frame(inner, time.Time{}, transport.PriNormal)); err != nil {
			t.Fatalf("%s: %v", binding, err)
		}
		if !reflect.DeepEqual(handlerSaw(), &inner) {
			t.Errorf("%s: unframed argument arrived as %#v", binding, handlerSaw())
		}
	}
}

// TestUnregisteredTypeStillNamed: an unregistered concrete type inside an
// interface field fails the call, on either binding, with the typed error
// naming it — and the connection carries on.
func TestUnregisteredTypeStillNamed(t *testing.T) {
	clients, _ := bindings(t)
	for binding, c := range clients {
		_, err := c.Call("echo", transport.Framed{Pri: transport.PriHigh, Arg: benchTask{Job: "ok"}})
		if err != nil {
			t.Fatalf("%s: %v", binding, err)
		}
		_, err = c.Call("echo", transport.Framed{Pri: transport.PriHigh, Arg: transport.Framed{Arg: neverRegistered{1}}})
		var ute *enc.UnregisteredTypeError
		if !errors.As(err, &ute) || ute.Type != "enc_test.neverRegistered" {
			t.Errorf("%s: error %v, want *enc.UnregisteredTypeError naming enc_test.neverRegistered", binding, err)
		}
		if res, err := c.Call("echo", benchTask{Job: "after"}); err != nil || !reflect.DeepEqual(res, &benchTask{Job: "after"}) {
			t.Errorf("%s: call after the failed one: %#v, %v", binding, res, err)
		}
	}
}

// FuzzCodecRoundTrip builds a value of a registered type from the fuzz
// input — the space, replica, discovery and application wire structs,
// Framed, and this package's struct of every kind among them — and requires
// decode(encode(v)) to be v (or, for empty-but-non-nil slices, what gob
// made of v), and to stay v after the message's bytes are overwritten —
// except an enc.View, which must be the message's own bytes and so change
// with them. It then damages the message and requires the decoder to
// return an error or a value: never panic, never hang.
func FuzzCodecRoundTrip(f *testing.F) {
	types := registered(f)
	for i := range types { // every registered type, filled and with empties
		f.Add(int64(i+1), uint16(i), []byte{3, 0xff, 0, 1})
		f.Add(int64(5*i), uint16(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint16, damage []byte) {
		rt := types[int(pick)%len(types)]
		fl := &filler{rng: rand.New(rand.NewSource(seed)), empties: seed%5 == 0}
		v := fl.value(rt)
		msg, err := enc.NewEncoder().Encode(nil, v)
		if err != nil {
			t.Fatalf("encode %s: %v", rt, err)
		}
		got, err := enc.NewDecoder().Decode(msg)
		if err != nil {
			t.Fatalf("decode %s: %v", rt, err)
		}
		want := v
		if fl.empties {
			want = viaGob(t, v)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got %#v\nwant %#v", rt, got, want)
		}
		// A decoded value shares no memory with its message (DESIGN §14):
		// the connection reuses the buffer for the next frame. A View is
		// the one exception, on purpose: it is the run of the message that
		// encodes it, which the round trip above found equal to the bytes
		// sent.
		kept := append([]byte(nil), msg...)
		for i := range msg {
			msg[i] = ^msg[i]
		}
		for _, view := range views(got) {
			if !aliases(view, msg) {
				t.Fatalf("%s: a View %x is not the bytes of its message", rt, view)
			}
		}
		if !reflect.DeepEqual(withoutViews(got), withoutViews(want)) {
			t.Fatalf("%s changed with the bytes it was decoded from:\n got %#v\nwant %#v", rt, got, want)
		}
		msg = kept
		sameLent(t, msg)

		for i := 0; i+1 < len(damage); i += 2 {
			msg[int(damage[i])%len(msg)] ^= damage[i+1]
		}
		sameLent(t, msg)
		sameLent(t, msg[:len(msg)/2])
		sameLent(t, damage)
	})
}

// sameLent requires DecodeLent to give what Decode gives for msg, in its
// lent form (see lent), or the same error — twice, with the first value and
// its Lent fields released in between, so the second likely decodes into
// the memory the first held and must hold nothing left over from it.
func sameLent(t *testing.T, msg []byte) {
	t.Helper()
	plain, perr := enc.NewDecoder().Decode(msg)
	for i := 0; i < 2; i++ {
		got, err := enc.NewDecoder().DecodeLent(msg)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("DecodeLent(%x) fails with %v, Decode with %v", msg, err, perr)
		}
		if err != nil {
			return
		}
		if want := lent(plain); !sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("DecodeLent(%x) = %#v, Decode gives %#v", msg, got, want)
		}
		releaseLent(got)
	}
}

// sameValue is reflect.DeepEqual on decoded trees, except that NaN equals
// NaN: a damaged message can decode a float into one.
func sameValue(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || x != x && y != y
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
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
		for _, k := range a.MapKeys() {
			if y := b.MapIndex(k); !y.IsValid() || !sameValue(a.MapIndex(k), y) {
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
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// releaseLent releases what DecodeLent lent: the struct in each Lent field,
// then the struct itself.
func releaseLent(x interface{}) {
	if v := reflect.ValueOf(x); v.Kind() == reflect.Pointer && !v.IsNil() && v.Elem().Kind() == reflect.Struct {
		for i := 0; i < v.Elem().NumField(); i++ {
			if f := v.Elem().Field(i); f.Type() == lentType {
				enc.Release(f.Interface())
			}
		}
	}
	enc.Release(x)
}
