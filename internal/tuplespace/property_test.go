package tuplespace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gospaces/internal/vclock"
)

// propEntry is a struct exercising every field kind the matcher and deep
// copier must handle.
type propEntry struct {
	S     string
	I     *int
	F     *float64
	B     []byte
	Map   map[string]int
	Inner innerEntry
	Ptr   *innerEntry
	Arr   [3]int
	unexp int // unexported: ignored by match and copy
}

type innerEntry struct {
	X int
	Y string
}

// Generate implements quick.Generator so tests get a rich distribution of
// entries including wildcard (zero) fields.
func (propEntry) Generate(r *rand.Rand, _ int) reflect.Value {
	e := propEntry{}
	if r.Intn(2) == 0 {
		e.S = string(rune('a' + r.Intn(4)))
	}
	if r.Intn(2) == 0 {
		v := r.Intn(5)
		e.I = &v
	}
	if r.Intn(3) == 0 {
		v := float64(r.Intn(3))
		e.F = &v
	}
	if r.Intn(3) == 0 {
		e.B = []byte{byte(r.Intn(3))}
	}
	if r.Intn(4) == 0 {
		e.Map = map[string]int{"k": r.Intn(3)}
	}
	e.Inner = innerEntry{X: r.Intn(3)}
	if r.Intn(3) == 0 {
		e.Ptr = &innerEntry{X: r.Intn(3), Y: "p"}
	}
	e.Arr[r.Intn(3)] = r.Intn(2)
	return reflect.ValueOf(e)
}

// Property: an entry always matches itself and the all-wildcard template.
func TestPropSelfMatch(t *testing.T) {
	f := func(e propEntry) bool {
		self, err := Match(e, e)
		if err != nil || !self {
			return false
		}
		wild, err := Match(propEntry{}, e)
		return err == nil && wild
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: matching is consistent with clearing template fields — a
// template derived from an entry by zeroing fields always matches it.
func TestPropZeroedTemplateMatches(t *testing.T) {
	f := func(e propEntry, clearS, clearI, clearB bool) bool {
		tmpl := e
		if clearS {
			tmpl.S = ""
		}
		if clearI {
			tmpl.I = nil
		}
		if clearB {
			tmpl.B = nil
		}
		tmpl.Map = nil
		tmpl.Ptr = nil
		tmpl.Inner = innerEntry{}
		tmpl.Arr = [3]int{}
		ok, err := Match(tmpl, e)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CopyEntry produces a deeply equal value (on exported fields)
// that shares no mutable storage with the original.
func TestPropDeepCopyEquality(t *testing.T) {
	f := func(e propEntry) bool {
		cp, err := CopyEntry(e)
		if err != nil {
			return false
		}
		got := cp.(propEntry)
		e.unexp = 0 // unexported fields are not copied
		if !reflect.DeepEqual(got, e) {
			return false
		}
		if len(e.B) > 0 {
			e.B[0] ^= 0xff
			if got.B[0] == e.B[0] {
				return false // aliased storage
			}
		}
		if e.Ptr != nil && got.Ptr == e.Ptr {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: write-then-take round-trips the entry exactly.
func TestPropWriteTakeRoundTrip(t *testing.T) {
	s := New(vclock.NewReal())
	f := func(e propEntry) bool {
		if _, err := s.Write(e, nil, Forever); err != nil {
			return false
		}
		got, err := s.Take(propEntry{}, nil, time.Second)
		if err != nil {
			return false
		}
		e.unexp = 0
		return reflect.DeepEqual(got.(propEntry), e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (exactly-once): with many concurrent takers and random
// transactional aborts, every task is eventually taken exactly once — an
// aborted take returns the task for someone else. This is the invariant the
// framework relies on for fault tolerance.
func TestPropExactlyOnceUnderAborts(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	const nTasks = 60
	for i := 0; i < nTasks; i++ {
		if _, err := s.Write(task{Job: "eo", ID: ip(i)}, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				tx := s.Begin(0)
				got, err := s.Take(task{Job: "eo"}, tx, 50*time.Millisecond)
				if err != nil {
					_ = tx.Abort()
					return // space drained
				}
				id := *got.(task).ID
				if rng.Intn(3) == 0 {
					_ = tx.Abort() // simulated worker death: task must reappear
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				mu.Lock()
				seen[id]++
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()
	if len(seen) != nTasks {
		t.Fatalf("completed %d distinct tasks, want %d", len(seen), nTasks)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d completed %d times", id, n)
		}
	}
}

// matchesReflective is the reference matcher: the rule as the package
// comment states it, one reflect.DeepEqual per non-zero exported template
// field, with nothing cached or compiled. The compiled matcher is checked
// against it here, in matcher_test.go and by FuzzTemplateMatch.
func matchesReflective(tmpl, cand reflect.Value) bool {
	t := tmpl.Type()
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		f := tmpl.Field(i)
		if f.IsZero() {
			continue
		}
		if !reflect.DeepEqual(f.Interface(), cand.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// Property: the compiled matcher agrees with the reflective reference.
func TestPropMatcherAgreesWithSlow(t *testing.T) {
	f := func(tmpl, cand propEntry) bool {
		_, m, err := compile(tmpl, nil)
		if err != nil {
			return false
		}
		return m.match(reflect.ValueOf(cand)) == matchesReflective(reflect.ValueOf(tmpl), reflect.ValueOf(cand))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
