package shard

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// The replay matrix pins what the router does after one scripted failure,
// for every kind of routed op × failure class × failover resolver × retry
// budget. It is written against the exported API (New, Options, fake
// handles built with space.Intercept), save for draining the router's
// budget in the "empty" column. The replayMatrix table was
// generated at the commit before the per-shard call code was consolidated
// into Router.call (go test -v -run 'TestReplayMatrix$'
// -replaymatrix.dump), when routers still had an at-most-once mode and the
// matrix a mode dimension; the at-most-once half went with the mode, and
// what is left is that commit's exactly-once rows. The 14 of 288 cells
// changed on purpose since — 10 by the consolidation, 4 when exactly-once
// became the only mode — are the replayDrift table.

var dumpReplayMatrix = flag.Bool("replaymatrix.dump", false,
	"print the observed replay matrix as the replayMatrix table literal instead of asserting it")

// mxCell names one matrix cell.
type mxCell struct {
	op       string // see mxOps
	fail     string // see mxFailures: the error the first handle call returns
	resolver string // Options.Failover: "none" | "retarget" | "nothing"
	budget   string // the router's retry budget: "full" | "empty"
}

// mxOutcome is what one cell is held to.
type mxOutcome struct {
	primary, replacement int    // handle Do calls while the op under test ran
	err                  string // see mxClassify
	// deltas of retry:attempts, retry:ambiguous, retry:exhausted,
	// retry:budget_denied, repl:failovers
	attempts, ambiguous, exhausted, denied, failovers int64
}

type mxRow struct {
	mxCell
	mxOutcome
}

var (
	mxResolvers = []string{"none", "retarget", "nothing"}
	mxBudgets   = []string{"full", "empty"}
	mxFailNames = []string{"refused", "optimeout", "overloaded", "badtxn"}
	mxFailures  = map[string]error{
		"refused":    errors.New("dial tcp 127.0.0.1:1: connect: connection refused"),
		"optimeout":  fmt.Errorf("%w: injected after 50ms", space.ErrOpTimeout),
		"overloaded": tuplespace.ErrOverloaded,
		"badtxn":     space.ErrBadTxn,
	}
)

// mxOp is one routed operation: setup runs against the healthy ring and
// returns the op under test, which runs with the failure armed.
type mxOp struct {
	name  string
	setup func(t *testing.T, r *Router) func() error
}

func mxDirect(run func(r *Router) error) func(*testing.T, *Router) func() error {
	return func(_ *testing.T, r *Router) func() error { return func() error { return run(r) } }
}

var mxOps = []mxOp{
	{"write-keyed", mxDirect(func(r *Router) error {
		_, err := r.Write(kv{Key: "w", Val: 1}, nil, tuplespace.Forever)
		return err
	})},
	{"write-unkeyed", mxDirect(func(r *Router) error {
		_, err := r.Write(blob{Val: 1}, nil, tuplespace.Forever)
		return err
	})},
	{"take-if-exists", mxDirect(func(r *Router) error {
		_, err := r.TakeIfExists(kv{Key: "a"}, nil)
		return err
	})},
	{"take-blocking", mxDirect(func(r *Router) error {
		_, err := r.Take(kv{Key: "a"}, nil, 2*time.Second)
		return err
	})},
	// A blocking take nothing will satisfy: what the deadline surfaces after
	// the failure.
	{"take-blocking-miss", mxDirect(func(r *Router) error {
		_, err := r.Take(kv{Key: "missing"}, nil, 40*time.Millisecond)
		return err
	})},
	{"read-if-exists", mxDirect(func(r *Router) error {
		_, err := r.ReadIfExists(kv{Key: "a"}, nil)
		return err
	})},
	{"take-all", mxDirect(func(r *Router) error {
		_, err := r.TakeAll(kv{Key: "a"}, nil, 0)
		return err
	})},
	{"count", mxDirect(func(r *Router) error {
		_, err := r.Count(kv{Key: "a"})
		return err
	})},
	// Commit of a transaction that touched one shard: the failing call is
	// the sub-commit.
	{"commit", func(t *testing.T, r *Router) func() error {
		txn := mxBegin(t, r)
		if _, err := r.Write(kv{Key: "c", Val: 1}, txn, tuplespace.Forever); err != nil {
			t.Fatalf("setup write: %v", err)
		}
		return txn.Commit
	}},
	{"lease-cancel", func(t *testing.T, r *Router) func() error {
		l, err := r.Write(kv{Key: "l", Val: 1}, nil, time.Minute)
		if err != nil {
			t.Fatalf("setup write: %v", err)
		}
		return l.Cancel
	}},
	// A write under a caller transaction whose sub-transaction is already
	// open on the shard: the failing call is the Write itself.
	{"txn-write", func(t *testing.T, r *Router) func() error {
		txn := mxBegin(t, r)
		if _, err := r.Write(kv{Key: "t", Val: 1}, txn, tuplespace.Forever); err != nil {
			t.Fatalf("setup write: %v", err)
		}
		return func() error {
			_, err := r.Write(kv{Key: "t", Val: 2}, txn, tuplespace.Forever)
			return err
		}
	}},
	// The first write under a caller transaction: the failing call is the
	// BeginTxn that lazily opens the shard's sub-transaction.
	{"txn-write-first", func(t *testing.T, r *Router) func() error {
		txn := mxBegin(t, r)
		return func() error {
			_, err := r.Write(kv{Key: "t", Val: 1}, txn, tuplespace.Forever)
			return err
		}
	}},
}

func mxBegin(t *testing.T, r *Router) space.Txn {
	t.Helper()
	txn, err := r.BeginTxn(tuplespace.Forever)
	if err != nil {
		t.Fatalf("setup begin: %v", err)
	}
	return txn
}

// mxHandles are a cell's fake shard handles: two primaries that share one
// scripted failure (whichever is called first while armed fails once, before
// executing) and one healthy replacement per ring ID for the resolver.
type mxHandles struct {
	armed                bool
	left                 int
	fail                 error
	primary, replacement int
}

func (h *mxHandles) wrap(l *space.Local, primary bool) space.Space {
	return space.Intercept(l, func(op space.Op, next space.Doer) (space.Result, error) {
		if h.armed {
			if !primary {
				h.replacement++
			} else if h.primary++; h.left > 0 {
				h.left--
				return space.Result{}, h.fail
			}
		}
		return next.Do(op)
	})
}

// mxRun drives one cell and reports what happened.
func mxRun(t *testing.T, c mxCell) mxOutcome {
	t.Helper()
	clk := vclock.NewReal()
	h := &mxHandles{fail: mxFailures[c.fail]}
	ids := []string{"shard-0", "shard-1"}
	var shards []Shard
	repl := make(map[string]space.Space)
	for _, id := range ids {
		for _, primary := range []bool{true, false} {
			l := space.NewLocal(clk)
			// Every handle holds the entry keyed lookups ask for, so a replay
			// finds it wherever it lands.
			if _, err := l.Write(kv{Key: "a", Val: 1}, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
			if primary {
				shards = append(shards, Shard{ID: id, Space: h.wrap(l, true), Epoch: 1})
			} else {
				repl[id] = h.wrap(l, false)
			}
		}
	}
	ctr := metrics.NewCounters()
	opts := Options{Clock: clk, Seed: "mx", Counters: ctr}
	switch c.resolver {
	case "retarget":
		opts.Failover = func(id string) (Shard, error) { return Shard{ID: id, Space: repl[id], Epoch: 2}, nil }
	case "nothing":
		opts.Failover = func(id string) (Shard, error) { return Shard{}, errors.New("no newer registration") }
	}
	r, err := New(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	r.slice, r.poll = 50*time.Millisecond, 2*time.Millisecond
	if c.budget == "empty" {
		r.budget = newRetryBudget(1, 0.001)
		r.budget.Allow()
	}
	var run func() error
	for _, op := range mxOps {
		if op.name == c.op {
			run = op.setup(t, r)
		}
	}
	if run == nil {
		t.Fatalf("unknown op %q", c.op)
	}
	before := ctr.Snapshot()
	h.armed, h.left = true, 1
	opErr := run()
	h.armed = false
	after := ctr.Snapshot()
	delta := func(name string) int64 { return int64(after[name]) - int64(before[name]) }
	return mxOutcome{
		primary: h.primary, replacement: h.replacement, err: mxClassify(opErr),
		attempts:  delta(metrics.CounterRetryAttempts),
		ambiguous: delta(metrics.CounterRetryAmbiguous),
		exhausted: delta(metrics.CounterRetryExhausted),
		denied:    delta(metrics.CounterRetryBudgetDenied),
		failovers: delta(metrics.CounterReplFailovers),
	}
}

// mxClassify reduces an error to its class: "ok", "shard(<cause>)" for a
// ShardError, "timeout+shard(<cause>)" for ErrTimeout joined with one,
// "timeout", or "bare(<cause>)" for an untagged error.
func mxClassify(err error) string {
	if err == nil {
		return "ok"
	}
	cause := "other"
	switch {
	case errors.Is(err, space.ErrOpTimeout):
		cause = "optimeout"
	case errors.Is(err, tuplespace.ErrOverloaded):
		cause = "overloaded"
	case errors.Is(err, space.ErrBadTxn):
		cause = "badtxn"
	case errors.Is(err, tuplespace.ErrTxnInactive):
		cause = "txninactive"
	case strings.Contains(err.Error(), "connection refused"):
		cause = "refused"
	}
	var se *ShardError
	tagged := errors.As(err, &se)
	switch {
	case errors.Is(err, tuplespace.ErrTimeout) && tagged:
		return "timeout+shard(" + cause + ")"
	case errors.Is(err, tuplespace.ErrTimeout):
		return "timeout"
	case tagged:
		return "shard(" + cause + ")"
	}
	return "bare(" + cause + ")"
}

func (c mxCell) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.op, c.fail, c.resolver, c.budget)
}

func mxAllCells() []mxCell {
	var out []mxCell
	for _, op := range mxOps {
		for _, fail := range mxFailNames {
			for _, res := range mxResolvers {
				for _, b := range mxBudgets {
					out = append(out, mxCell{op.name, fail, res, b})
				}
			}
		}
	}
	return out
}

// TestReplayMatrix holds every cell to the outcome recorded in
// replayMatrix. Together with replayDrift the table covers the full cross
// product, each cell once.
func TestReplayMatrix(t *testing.T) {
	if *dumpReplayMatrix {
		for _, c := range mxAllCells() {
			o := mxRun(t, c)
			fmt.Printf("\t{mxCell{%q, %q, %q, %q}, mxOutcome{%d, %d, %q, %d, %d, %d, %d, %d}},\n",
				c.op, c.fail, c.resolver, c.budget,
				o.primary, o.replacement, o.err, o.attempts, o.ambiguous, o.exhausted, o.denied, o.failovers)
		}
		return
	}
	rows := make(map[mxCell]int)
	for _, row := range append(append([]mxRow(nil), replayMatrix...), replayDrift...) {
		rows[row.mxCell]++
	}
	for _, c := range mxAllCells() {
		if rows[c] != 1 {
			t.Errorf("%v: %d rows in replayMatrix + replayDrift, want 1", c, rows[c])
		}
	}
	mxCheck(t, replayMatrix)
}

// TestReplayMatrixDrift pins the cells whose outcome the consolidation
// changed on purpose; each group in replayDrift says what the parent did.
func TestReplayMatrixDrift(t *testing.T) { mxCheck(t, replayDrift) }

func mxCheck(t *testing.T, rows []mxRow) {
	t.Helper()
	for _, row := range rows {
		if got := mxRun(t, row.mxCell); got != row.mxOutcome {
			t.Errorf("%v:\n  got  %+v\n  want %+v", row.mxCell, got, row.mxOutcome)
		}
	}
}
