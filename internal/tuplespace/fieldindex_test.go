package tuplespace

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

func init() {
	enc.RegisterType(fieldDoc{})
}

// fieldDoc is keyed by Key. Templates select on N, U and Name, which an
// index can cover, and on F and On, which none does; ID names the entry in
// results.
type fieldDoc struct {
	Key  string `space:"index"`
	N    int
	U    uint16
	Name string
	F    float64
	On   bool
	ID   int
}

func newFieldDoc(id int) fieldDoc {
	return fieldDoc{
		Key:  fmt.Sprintf("k%d", id%2),
		N:    1 + id%97,
		U:    uint16(1 + id%13),
		Name: fmt.Sprintf("n%d", id%11),
		F:    float64(id%5) + 0.5,
		On:   id%3 == 0,
		ID:   id,
	}
}

// fieldTemplate fixes each field of a fieldDoc, or not, at random.
func fieldTemplate(rng *rand.Rand) fieldDoc {
	var tmpl fieldDoc
	d := newFieldDoc(rng.Intn(1 << 20))
	if rng.Intn(4) == 0 {
		tmpl.Key = d.Key
	}
	if rng.Intn(2) == 0 {
		tmpl.N = d.N
	}
	if rng.Intn(4) == 0 {
		tmpl.U = d.U
	}
	if rng.Intn(4) == 0 {
		tmpl.Name = d.Name
	}
	if rng.Intn(4) == 0 {
		tmpl.F = d.F
	}
	if rng.Intn(4) == 0 {
		tmpl.On = d.On
	}
	return tmpl
}

// indexedFields names the fields s indexes e's type by, in the order the
// indexes were built.
func indexedFields(s *Space, e Entry) []string {
	ti, _, _ := infoFor(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	if st := s.types[ti.name]; st != nil {
		for _, ix := range st.indexes {
			names = append(names, ti.typ.Field(ix.field).Name)
		}
	}
	return names
}

func wantIndexes(t *testing.T, s *Space, e Entry, what string, want ...string) {
	t.Helper()
	if got := indexedFields(s, e); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s indexes %v, want %v", what, got, want)
	}
}

// scanned is the reference: the IDs, in list order, of every entry a full
// scan of the type's list would let a kind lookup for tmpl under tx act on.
func scanned(t *testing.T, s *Space, kind opKind, tmpl fieldDoc, tx *Txn) []int {
	t.Helper()
	ti, m, err := compile(tmpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.lock()
	defer s.unlock()
	st := s.types[ti.name]
	if st == nil {
		return nil
	}
	var ids []int
	items, now := st.all.items, s.clock.Now()
	for i := s.nextLocked(kind, items, 0, m, tx, now); i >= 0; i = s.nextLocked(kind, items, i+1, m, tx, now) {
		ids = append(ids, items[i].entry().(fieldDoc).ID)
	}
	return ids
}

// lookupOp is one way of looking up: a single read or take, a bulk read or
// take, or a count.
type lookupOp int

const (
	opSingleRead lookupOp = iota
	opCount
	opReadAll
	opSingleTake
	opTakeAll
	readOnlyOps = opSingleTake // the ops before it change nothing
	lookupOps   = opTakeAll + 1
)

// agreeScan runs op for tmpl under tx on s and fails unless it answers what a
// full scan of the type's list would: the first match in write order for
// a single lookup, the matches in write order for a bulk one.
func agreeScan(t *testing.T, s *Space, what string, op lookupOp, tmpl fieldDoc, tx *Txn, max int) {
	t.Helper()
	kind := opRead
	if op == opSingleTake || op == opTakeAll {
		kind = opTake
	}
	if op == opCount {
		tx = nil // Count sees public entries only
	}
	want := scanned(t, s, kind, tmpl, tx)
	var got []int
	switch op {
	case opSingleRead, opSingleTake:
		e, err := s.Lookup(kind == opTake, false, tmpl, tx, 0, OpToken{})
		switch {
		case errors.Is(err, ErrNoMatch):
		case err != nil:
			t.Fatalf("%s: lookup %+v: %v", what, tmpl, err)
		default:
			got = []int{e.(fieldDoc).ID}
		}
		if len(want) > 1 {
			want = want[:1]
		}
	case opCount:
		n, err := s.Count(tmpl)
		if err != nil {
			t.Fatalf("%s: count %+v: %v", what, tmpl, err)
		}
		got, want = []int{n}, []int{len(want)}
	default:
		var es []Entry
		var err error
		if kind == opTake {
			es, err = s.TakeAll(tmpl, tx, max)
		} else {
			es, err = s.ReadAll(tmpl, tx, max)
		}
		if err != nil {
			t.Fatalf("%s: bulk %+v: %v", what, tmpl, err)
		}
		for _, e := range es {
			got = append(got, e.(fieldDoc).ID)
		}
		if max > 0 && len(want) > max {
			want = want[:max]
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: lookup %d of %+v answered %v, a full scan %v", what, op, tmpl, got, want)
	}
}

// TestFieldIndexBuiltOnDemand: a type gets an index on a field other than
// its key when a lookup fixes that field and no indexed one, once the type
// holds indexMin live entries — never below that, never for a float or a
// bool, never on a store nothing looks up. From then on, under writes,
// takes, transactions committed and aborted, lease expiry and cancels, and
// on a standby and a migration's destination fed by Applier records
// (staged copies included), every lookup answers what a full scan of the
// type would, first in write order.
func TestFieldIndexBuiltOnDemand(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	primary, standby, dest := New(clk), New(clk), New(clk)
	toDest := NewApplier(dest).SetFilter(func(e Entry) bool { return e.(fieldDoc).Key == "k1" })
	if err := primary.AttachJournal(NewJournalSink(appliers{NewApplier(standby), toDest})); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var leases []EntryLease
	nextID := 0
	write := func(tx *Txn, ttl time.Duration) {
		t.Helper()
		nextID++
		l, err := primary.Write(newFieldDoc(nextID), tx, ttl)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	clk.Run(func() {
		for nextID < indexMin-1 {
			write(nil, Forever)
		}
		agreeScan(t, primary, "below indexMin", opSingleRead, fieldDoc{N: 5}, nil, 0)
		agreeScan(t, primary, "below indexMin", opCount, fieldDoc{Name: "n3"}, nil, 0)
		wantIndexes(t, primary, fieldDoc{}, "a type below indexMin", "Key")

		write(nil, Forever)
		for _, tmpl := range []fieldDoc{{F: 1.5}, {On: true}, {Key: "k0", N: 5}} {
			agreeScan(t, primary, "at indexMin", opSingleRead, tmpl, nil, 0)
		}
		wantIndexes(t, primary, fieldDoc{}, "after lookups by float, bool and key", "Key")
		agreeScan(t, primary, "at indexMin", opSingleRead, fieldDoc{N: 5}, nil, 0)
		wantIndexes(t, primary, fieldDoc{}, "after a lookup by N", "Key", "N")
		agreeScan(t, primary, "at indexMin", opReadAll, fieldDoc{N: 5, Name: "n3"}, nil, 0)
		wantIndexes(t, primary, fieldDoc{}, "after a lookup by N and Name", "Key", "N")
		agreeScan(t, primary, "at indexMin", opCount, fieldDoc{Name: "n3", F: 1.5}, nil, 0)
		agreeScan(t, primary, "at indexMin", opSingleRead, fieldDoc{U: 4}, nil, 0)
		wantIndexes(t, primary, fieldDoc{}, "after lookups by Name and U", "Key", "N", "Name", "U")
		checkLists(t, primary)

		for nextID < 3*indexMin {
			write(nil, Forever)
		}
		wantIndexes(t, standby, fieldDoc{}, "a standby", "Key")
		wantIndexes(t, dest, fieldDoc{}, "a migration's destination", "Key")
		// A promoted standby indexes on its first lookup; the destination's
		// copies are all staged, so its lookups find nothing yet.
		agreeScan(t, standby, "standby", opSingleRead, fieldDoc{U: 4}, nil, 0)
		wantIndexes(t, standby, fieldDoc{}, "a looked-up standby", "Key", "U")
		agreeScan(t, dest, "destination", opReadAll, fieldDoc{N: 5}, nil, 0)
		wantIndexes(t, dest, fieldDoc{}, "a looked-up destination", "Key", "N")
		checkLists(t, standby)
		checkLists(t, dest)

		var open []*Txn
		anyTxn := func() (int, *Txn) {
			if len(open) == 0 || rng.Intn(2) == 0 {
				return -1, nil
			}
			i := rng.Intn(len(open))
			return i, open[i]
		}
		for step := 0; step < 2_000; step++ {
			what := fmt.Sprintf("step %d", step)
			switch op := rng.Intn(100); {
			case op < 40:
				_, tx := anyTxn()
				var ttl time.Duration
				if rng.Intn(5) == 0 {
					ttl = time.Duration(1+rng.Intn(40)) * time.Millisecond
				}
				write(tx, ttl)
			case op < 75:
				_, tx := anyTxn()
				agreeScan(t, primary, what, lookupOp(rng.Intn(int(lookupOps))), fieldTemplate(rng), tx, rng.Intn(3)*4)
			case op < 80:
				_ = leases[rng.Intn(len(leases))].Cancel() // live or not
			case op < 85:
				clk.Sleep(time.Duration(1+rng.Intn(30)) * time.Millisecond)
			case op < 90:
				open = append(open, primary.Begin(0))
			default:
				i, tx := anyTxn()
				if tx == nil {
					continue
				}
				open = append(open[:i], open[i+1:]...)
				var err error
				if rng.Intn(2) == 0 {
					err = tx.Commit()
				} else {
					err = tx.Abort()
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			agreeScan(t, standby, what+" (standby)", lookupOp(rng.Intn(int(readOnlyOps))), fieldTemplate(rng), nil, 0)
			agreeScan(t, dest, what+" (destination)", lookupOp(rng.Intn(int(readOnlyOps))), fieldTemplate(rng), nil, 0)
			if step%10 == 0 { // at this size a check costs more than the step
				for _, s := range []*Space{primary, standby, dest} {
					checkLists(t, s)
				}
			}
		}
		for _, tx := range open {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if st := primary.Stats(); st.Expired == 0 || st.TxnCommits == 0 || st.TxnAborts == 0 {
			t.Fatalf("the run never exercised expiry, commit and abort: %+v", st)
		}

		// The source lets the range go: the destination's staged copies
		// become visible, and its lookups find them through its index.
		if _, locked, err := primary.EvictWhere(func(e Entry) bool { return e.(fieldDoc).Key == "k1" }); err != nil || locked != 0 {
			t.Fatalf("evict: %d locked, %v", locked, err)
		}
		if n, _ := dest.Count(fieldDoc{}); n == 0 {
			t.Fatal("no staged copy became visible at the destination")
		}
		for i := 0; i < 500; i++ {
			agreeScan(t, dest, fmt.Sprintf("revealed %d", i), lookupOp(rng.Intn(int(lookupOps))), fieldTemplate(rng), nil, rng.Intn(3)*4)
			if i%10 == 0 {
				checkLists(t, dest)
			}
		}
		for _, s := range []*Space{primary, standby, dest} {
			agreeScan(t, s, "the end", opReadAll, fieldDoc{}, nil, 0)
			checkLists(t, s)
		}
		// A transaction's writes reach the standby at commit, so the two
		// hold the same entries in different orders.
		held := func(s *Space) []int {
			es, err := s.ReadAll(fieldDoc{}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var ids []int
			for _, e := range es {
				ids = append(ids, e.(fieldDoc).ID)
			}
			sort.Ints(ids)
			return ids
		}
		if p, b := held(primary), held(standby); fmt.Sprint(p) != fmt.Sprint(b) {
			t.Fatalf("the standby ends holding %d entries, the primary %d", len(b), len(p))
		}
	})
}
