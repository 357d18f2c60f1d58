package enc

import (
	"fmt"
	"testing"
	"unsafe"
)

// internMsg carries one string, the shape of a keyed entry's key or a
// token's client.
type internMsg struct {
	Key string
	N   int
}

func init() { RegisterType(internMsg{}) }

// streamOf encodes one message per key on one connection and returns the
// messages in order.
func streamOf(t *testing.T, keys []string) [][]byte {
	t.Helper()
	e := NewEncoder()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := e.Encode(nil, internMsg{Key: k, N: i})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func keysN(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// TestStreamInternsStrings: a Decoder copies a string only the first time
// its stream sends it, and hands every later decode of it the same string;
// its table never holds more than maxInterned strings; and a stream whose
// strings never repeat allocates one copy per string, as a decode without
// the table does.
func TestStreamInternsStrings(t *testing.T) {
	// A working set of 256 keys, the bag's batch, sent over and over.
	keys := keysN("task", 256)
	var all []string
	for pass := 0; pass < 4; pass++ {
		all = append(all, keys...)
	}
	msgs := streamOf(t, all)
	d := NewDecoder()
	first := make(map[string]string)
	for i, msg := range msgs {
		v, err := d.DecodeLent(msg)
		if err != nil {
			t.Fatal(err)
		}
		m := v.(*internMsg)
		if m.Key != all[i] || m.N != i {
			t.Fatalf("message %d decoded as %+v", i, *m)
		}
		if s, ok := first[m.Key]; !ok {
			first[m.Key] = m.Key
		} else if !sameString(s, m.Key) {
			t.Fatalf("message %d: %q is a second copy", i, m.Key)
		}
		Release(v)
	}
	if d.strs.n != len(keys) {
		t.Fatalf("table holds %d strings, want %d", d.strs.n, len(keys))
	}

	// Distinct strings past the bound: the table starts again when full,
	// and its slots stay at most twice the bound.
	miss := streamOf(t, keysN("resident", 5*maxInterned+7))
	d = NewDecoder()
	for i, msg := range miss {
		if _, err := d.Decode(msg); err != nil {
			t.Fatal(err)
		}
		if d.strs.n > maxInterned || len(d.strs.slots) > 2*maxInterned {
			t.Fatalf("after %d strings the table holds %d in %d slots, bound %d", i+1, d.strs.n, len(d.strs.slots), maxInterned)
		}
	}
	if d.strs.n != (5*maxInterned+7)%maxInterned {
		t.Fatalf("table holds %d strings after %d distinct, want %d", d.strs.n, len(miss), (5*maxInterned+7)%maxInterned)
	}

	// The race detector's pool drops values at random, so the counts are
	// the plain build's.
	if raceEnabled {
		return
	}
	d = NewDecoder()
	for _, msg := range msgs[:len(keys)] { // the first pass
		v, _ := d.DecodeLent(msg)
		Release(v)
	}
	next := len(keys)
	hits := testing.AllocsPerRun(len(keys), func() {
		v, err := d.DecodeLent(msgs[next])
		if err != nil {
			t.Fatal(err)
		}
		Release(v)
		next++
	})
	if hits != 0 {
		t.Fatalf("a lent decode of a string the stream sent before allocates %.2f times, want 0", hits)
	}

	// A miss-only stream, warmed past the table's growth: one copy a
	// string, what a decode without the table makes.
	d = NewDecoder()
	for _, msg := range miss[:2*maxInterned] {
		v, _ := d.DecodeLent(msg)
		Release(v)
	}
	next = 2 * maxInterned
	misses := testing.AllocsPerRun(2*maxInterned, func() {
		v, err := d.DecodeLent(miss[next])
		if err != nil {
			t.Fatal(err)
		}
		Release(v)
		next++
	})
	if misses != 1 {
		t.Fatalf("a lent decode of a string the stream never sent allocates %.2f times, want 1: its copy", misses)
	}
}

// sameString reports whether a and b are one string in memory, not two
// equal ones.
func sameString(a, b string) bool {
	return len(a) == len(b) && (len(a) == 0 || unsafe.StringData(a) == unsafe.StringData(b))
}
