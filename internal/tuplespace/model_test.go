package tuplespace

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// The model test drives a Space and a naive model of one — a slice in
// write order, scanned whole, nothing ever compacted — through the same
// random sequence of writes, reads, takes, bulk reads and takes, lease
// cancels, expiries and transactions, and requires the same answer from
// both at every step: the same entry (first written, first matched), the
// same entries in the same order from the bulk operations, the same
// errors. Between steps checkLists asserts the list invariants, so a
// compaction that reordered, dropped or resurrected anything, or a dead
// counter that drifted, fails at the step that did it.

type modelEntry struct {
	key          string
	tag          int // the field templates select on besides the key
	id           int // unique: it names the entry in results
	expiry       time.Time
	writtenUnder int // index into modelRun.txns, -1 if public
	takenUnder   int
	readers      map[int]bool
	removed      bool
	lease        EntryLease
}

// modelDoc's templates fix the key, the tag, both or neither.
type modelDoc struct {
	Key string `space:"index"`
	Tag int
	ID  int
}

type modelTxn struct {
	tx   *Txn
	open bool
}

type modelRun struct {
	t       *testing.T
	rng     *rand.Rand
	clk     *vclock.Virtual
	s       *Space
	entries []*modelEntry
	txns    []*modelTxn
	nextID  int
}

func (r *modelRun) gone(e *modelEntry) bool {
	return e.removed || (!e.expiry.IsZero() && r.clk.Now().After(e.expiry))
}

// eligible is the naive statement of what a lookup under transaction tx
// (-1 for none) may return.
func (r *modelRun) eligible(e *modelEntry, tmpl modelDoc, take bool, tx int) bool {
	if r.gone(e) || e.takenUnder >= 0 {
		return false
	}
	if e.writtenUnder >= 0 && e.writtenUnder != tx {
		return false
	}
	if take {
		for reader := range e.readers {
			if reader != tx {
				return false
			}
		}
	}
	return (tmpl.Key == "" || tmpl.Key == e.key) && (tmpl.Tag == 0 || tmpl.Tag == e.tag)
}

func (r *modelRun) apply(e *modelEntry, take bool, tx int) {
	switch {
	case take && tx >= 0:
		e.takenUnder = tx
	case take:
		e.removed = true
	case tx >= 0:
		e.readers[tx] = true
	}
}

func (r *modelRun) pick(tmpl modelDoc, take bool, tx, max int) []int {
	var ids []int
	for _, e := range r.entries {
		if max > 0 && len(ids) == max {
			break
		}
		if r.eligible(e, tmpl, take, tx) {
			r.apply(e, take, tx)
			ids = append(ids, e.id)
		}
	}
	return ids
}

func (r *modelRun) template() modelDoc {
	var tmpl modelDoc
	if r.rng.Intn(2) == 0 {
		tmpl.Key = fmt.Sprintf("k%d", r.rng.Intn(3))
	}
	if r.rng.Intn(2) == 0 {
		tmpl.Tag = 1 + r.rng.Intn(4)
	}
	return tmpl
}

// openTxn returns a random open transaction's index, or -1 (always -1
// one time in two, so that most traffic is plain).
func (r *modelRun) openTxn() (int, *Txn) {
	if r.rng.Intn(2) == 0 {
		return -1, nil
	}
	for _, i := range r.rng.Perm(len(r.txns)) {
		if r.txns[i].open {
			return i, r.txns[i].tx
		}
	}
	return -1, nil
}

func ids(entries []Entry) []int {
	var out []int
	for _, e := range entries {
		out = append(out, e.(modelDoc).ID)
	}
	return out
}

func (r *modelRun) write(n, txi int, tx *Txn, ttl time.Duration) {
	r.nextID++
	doc := modelDoc{Key: fmt.Sprintf("k%d", r.rng.Intn(3)), Tag: 1 + r.rng.Intn(4), ID: r.nextID}
	l, err := r.s.Write(doc, tx, ttl)
	if err != nil {
		r.t.Fatalf("step %d: write: %v", n, err)
	}
	e := &modelEntry{key: doc.Key, tag: doc.Tag, id: doc.ID, writtenUnder: txi, takenUnder: -1, readers: map[int]bool{}, lease: l}
	if ttl > 0 {
		e.expiry = r.clk.Now().Add(ttl)
	}
	r.entries = append(r.entries, e)
}

func (r *modelRun) step(n int, grow bool) {
	t := r.t
	op := r.rng.Intn(100)
	if grow && op >= 45 && op < 85 && r.rng.Intn(3) > 0 {
		op = 0 // in a growth phase two lookups in three become writes
	}
	switch {
	case op < 45: // write, sometimes leased, sometimes under a transaction
		txi, tx := r.openTxn()
		var ttl time.Duration
		if r.rng.Intn(5) == 0 {
			ttl = time.Duration(1+r.rng.Intn(40)) * time.Millisecond
		}
		r.write(n, txi, tx, ttl)
	case op < 75: // read or take, first match
		tmpl, take := r.template(), r.rng.Intn(3) > 0
		txi, tx := r.openTxn()
		got, err := r.s.Lookup(take, false, tmpl, tx, 0, OpToken{})
		want := r.pick(tmpl, take, txi, 1)
		switch {
		case len(want) == 0 && !errors.Is(err, ErrNoMatch):
			t.Fatalf("step %d: lookup(take=%v) %+v returned %+v, %v; the model holds no match", n, take, tmpl, got, err)
		case len(want) == 1 && (err != nil || got.(modelDoc).ID != want[0]):
			t.Fatalf("step %d: lookup(take=%v) %+v returned %+v, %v; the model says entry %d", n, take, tmpl, got, err, want[0])
		}
	case op < 85: // bulk read or take
		tmpl, take, max := r.template(), r.rng.Intn(2) == 0, r.rng.Intn(4)*5
		txi, tx := r.openTxn()
		var got []Entry
		var err error
		if take {
			got, err = r.s.TakeAll(tmpl, tx, max)
		} else {
			got, err = r.s.ReadAll(tmpl, tx, max)
		}
		if err != nil {
			t.Fatalf("step %d: bulk: %v", n, err)
		}
		if want := r.pick(tmpl, take, txi, max); fmt.Sprint(ids(got)) != fmt.Sprint(want) {
			t.Fatalf("step %d: bulk(take=%v, max=%d) %+v returned %v, the model says %v", n, take, max, tmpl, ids(got), want)
		}
	case op < 90: // cancel a random lease, live or not
		if len(r.entries) == 0 {
			return
		}
		e := r.entries[r.rng.Intn(len(r.entries))]
		err := e.lease.Cancel()
		// A lease whose entry expired cancels cleanly until a scan has
		// passed it, which the model does not track.
		if expired := !e.removed && r.gone(e); !expired {
			if want := e.removed; want != errors.Is(err, ErrLeaseExpired) || (!want && err != nil) {
				t.Fatalf("step %d: cancel of entry %d (removed=%v): %v", n, e.id, e.removed, err)
			}
		}
		e.removed = true
	case op < 93: // let leases lapse
		r.clk.Sleep(time.Duration(1+r.rng.Intn(30)) * time.Millisecond)
	case op < 96: // begin
		r.txns = append(r.txns, &modelTxn{tx: r.s.Begin(0), open: true})
	default: // commit or abort
		txi, tx := r.openTxn()
		if tx == nil {
			return
		}
		r.txns[txi].open = false
		commit := r.rng.Intn(2) == 0
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatalf("step %d: commit: %v", n, err)
			}
		} else if err := tx.Abort(); err != nil {
			t.Fatalf("step %d: abort: %v", n, err)
		}
		for _, e := range r.entries {
			delete(e.readers, txi)
			if e.takenUnder == txi {
				e.takenUnder = -1
				if commit {
					e.removed = true
				}
			}
			if e.writtenUnder == txi {
				e.writtenUnder = -1
				if !commit {
					e.removed = true
				}
			}
		}
	}
}

func TestSpaceAgreesWithNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		clk := vclock.NewVirtual(time.Unix(0, 0))
		r := &modelRun{t: t, rng: rand.New(rand.NewSource(seed)), clk: clk, s: New(clk)}
		clk.Run(func() {
			for n := 0; n < 6_000; n++ {
				// Phases of 1,000 steps: lists grow to several hundred
				// entries, then drain, so reaps of every size happen.
				r.step(n, n/1000%2 == 0)
				checkLists(t, r.s)
			}
			// Then the type grows past indexMin, and the first lookup by
			// Tag alone indexes it: the remaining steps run, and every
			// lookup that fixes Tag and not the key reads a bucket of it.
			// The lists are checked every tenth step: at this size a check
			// costs more than the step.
			ti, _, _ := infoFor(modelDoc{})
			st := r.s.types[ti.name]
			for n := 6_000; len(st.all.items)-int(st.all.dead) < indexMin+100; n++ {
				r.write(n, -1, nil, Forever)
			}
			for n := 7_000; n < 9_000; n++ {
				r.step(n, n < 7_500)
				if n%10 == 0 {
					checkLists(t, r.s)
				}
			}
			checkLists(t, r.s)
			if ixs := st.indexes; len(ixs) != 2 || ixs[1].field != 1 {
				t.Fatalf("seed %d: %d indexes on a type that grew past indexMin, want the key's and Tag's", seed, len(ixs))
			}
			// Whatever is left agrees too, entry by entry.
			got, err := r.s.ReadAll(modelDoc{}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.pick(modelDoc{}, false, -1, 0); fmt.Sprint(ids(got)) != fmt.Sprint(want) {
				t.Fatalf("seed %d: the space ends holding %v, the model %v", seed, ids(got), want)
			}
		})
		if st := r.s.Stats(); st.Expired == 0 || st.TxnCommits == 0 || st.TxnAborts == 0 {
			t.Fatalf("seed %d: the run never exercised expiry, commit and abort: %+v", seed, st)
		}
	}
}
