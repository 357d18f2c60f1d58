package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
)

// opTimeout bounds every blocking take. Entries are always on their way,
// so reaching it means something was lost; it is counted as a failure.
const opTimeout = 10 * time.Second

type opKind uint8

const (
	opWrite opKind = iota
	opTake
	opRead
)

// sample is one completed operation as its client saw it.
type sample struct {
	at   time.Duration // completion time since the pass began
	lat  time.Duration
	kind opKind
}

// opLog is one client's record of the operations it made. Only the
// owning client goroutine touches it until the pass has ended.
type opLog struct {
	start time.Time     // when the pass began
	ops   *atomic.Int64 // completed operations of all clients
	tr    *tracer       // nil unless traced

	samples   []sample
	attempted int64
	failed    int64
	err       error // first failure
}

type opTimer struct {
	t0   time.Time
	span int
}

func (l *opLog) begin() opTimer {
	var o opTimer
	if l.tr != nil {
		o.span = l.tr.begin(spanOp)
	}
	o.t0 = time.Now()
	return o
}

// end records the operation begun at o. ok is the caller's check of the
// returned entry; an error or a wrong entry counts as one failed
// operation. It reports whether the operation succeeded.
func (l *opLog) end(o opTimer, kind opKind, err error, ok bool) bool {
	now := time.Now()
	if l.tr != nil {
		l.tr.end(o.span)
	}
	l.attempted++
	if err != nil || !ok {
		l.failed++
		if l.err == nil {
			if err == nil {
				err = errors.New("wrong entry returned")
			}
			l.err = err
		}
		return false
	}
	l.samples = append(l.samples, sample{at: now.Sub(l.start), lat: now.Sub(o.t0), kind: kind})
	l.ops.Add(1)
	return true
}

// client is what one closed-loop client goroutine is given.
type client struct {
	id, of int // this client's index and the number of clients
	seed   int64
	sp     space.Space
	stop   *atomic.Bool
	log    *opLog
}

// workload is one of the benchmark's traffic mixes: the cluster it runs
// on, what set-up writes before timing, each client's loop, and the
// end-state checks.
type workload struct {
	name string
	why  string
	spec clusterSpec
	// clients is how many closed-loop clients the timed run uses. Every
	// caller in this system blocks on its reply (the worker's
	// take-compute-write loop, the master's write-all/take-all), so the
	// load is a closed loop by nature.
	clients int
	payload int // bytes of user payload in each entry the clients write
	// prime is how many operations set-up drives through the client loops
	// before timing, for workloads whose preload alone would leave set-up
	// too short to time: first use of each key, connection and codec.
	prime   int64
	preload func(seed int64, sp space.Space) error
	loop    func(c *client)
	verify  func(cl *cluster, sp space.Space) error
}

var workloads = []workload{
	{
		name:    "pair_mem_tcp",
		why:     "keyed write+take pairs on one in-memory shard: codec, framing and socket are ~99% of the work, store and disk almost none",
		spec:    clusterSpec{shards: 1},
		clients: 2,
		payload: pairPayload,
		prime:   2 * 2 * pairKeys,
		loop:    pairLoop,
		verify:  func(_ *cluster, sp space.Space) error { return wantCount(sp, Task{}, 0) },
	},
	{
		name: "scan_20k_tcp",
		why:  "read, take and write back by non-key field among 20,000 residents: the store's full-type scan is >95% of the work, the wire <5%",
		spec: clusterSpec{shards: 1},
		// One client: a second one would only queue behind the first's
		// 2 ms scans, which puts the write median on the cliff between a
		// 100 µs write and one that waited out a scan.
		clients: 1,
		payload: pairPayload,
		preload: func(seed int64, sp space.Space) error {
			return loadResidents(sp, newResidents(seed, pairPayload), scanResidents, func(job string, id int, payload []byte) tuplespace.Entry {
				return Task{Job: job, ID: id, Payload: payload}
			})
		},
		loop:   scanLoop,
		verify: func(_ *cluster, sp space.Space) error { return wantCount(sp, Task{}, scanResidents) },
	},
	{
		name:    "pair_durable_tcp",
		why:     "the pair workload on a WAL-backed shard with fsync on every record: journal encode, append and fsync dominate, snapshots run behind it",
		spec:    clusterSpec{shards: 1, durable: true},
		clients: 2,
		payload: pairPayload,
		preload: func(seed int64, sp space.Space) error {
			return loadResidents(sp, newResidents(seed, durPayload), durResidents, func(job string, id int, payload []byte) tuplespace.Entry {
				return Result{Job: job, ID: id, Payload: payload}
			})
		},
		loop: pairLoop,
		verify: func(cl *cluster, sp space.Space) error {
			if err := wantCount(sp, Task{}, 0); err != nil {
				return err
			}
			if err := wantCount(sp, Result{}, durResidents); err != nil {
				return err
			}
			info, err := cl.restart()
			if err != nil {
				return fmt.Errorf("reopen data dir: %w", err)
			}
			if info.Restored != durResidents {
				return fmt.Errorf("recovery restored %d entries, want %d", info.Restored, durResidents)
			}
			return nil
		},
	},
	{
		name:    "bag_repl_2shard",
		why:     "the paper's master/worker bag over 2 sync-replicated shards with exactly-once routing: scatter, tokens, blocking takes, wake-ups, 1 KiB messages, replica ship",
		spec:    clusterSpec{shards: 2, replicated: true},
		clients: 2,
		payload: bagPayload,
		prime:   2 * 4 * bagBatch,
		loop:    bagLoop,
		verify: func(cl *cluster, sp space.Space) error {
			if err := wantCount(sp, Task{}, 0); err != nil {
				return err
			}
			if err := wantCount(sp, Result{}, 0); err != nil {
				return err
			}
			for i, n := range cl.nodes {
				if seq, applied := n.primary.Seq(), n.backup.Applied(); seq != applied {
					return fmt.Errorf("shard %d: backup applied %d of %d records", i, applied, seq)
				}
				if p, b := n.local.TS.TypeCounts(), n.blocal.TS.TypeCounts(); !reflect.DeepEqual(p, b) {
					return fmt.Errorf("shard %d: primary holds %v, backup %v", i, p, b)
				}
			}
			return nil
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func residentJob(id int) string { return fmt.Sprintf("r%d", id) }

// loadResidents writes residents 1..n, each made by entry, through sp.
func loadResidents(sp space.Space, res residents, n int, entry func(job string, id int, payload []byte) tuplespace.Entry) error {
	for id := 1; id <= n; id++ {
		if _, err := sp.Write(entry(residentJob(id), id, res.payload(id)), nil, tuplespace.Forever); err != nil {
			return err
		}
	}
	return nil
}

func wantCount(sp space.Space, tmpl tuplespace.Entry, want int) error {
	n, err := sp.Count(tmpl)
	if err != nil {
		return fmt.Errorf("count %T: %w", tmpl, err)
	}
	if n != want {
		return fmt.Errorf("%d %T entries left, want %d", n, tmpl, want)
	}
	return nil
}

// pairLoop writes an entry under one of the client's own keys and takes
// it back by that key. It stops only between pairs, so the space ends
// empty.
func pairLoop(c *client) {
	g := newPairGen(c.seed, c.id)
	for !c.stop.Load() {
		slot, id := g.next()
		o := c.log.begin()
		_, err := c.sp.Write(Task{Job: g.keys[slot], ID: id, Payload: g.pay.data[slot]}, nil, tuplespace.Forever)
		if !c.log.end(o, opWrite, err, true) {
			return
		}
		o = c.log.begin()
		e, err := c.sp.Take(Task{Job: g.keys[slot]}, nil, opTimeout)
		t, _ := e.(Task)
		if !c.log.end(o, opTake, err, t.ID == id && g.pay.ok(slot, t.Payload)) {
			return
		}
	}
}

// scanLoop reads a resident by ID alone, takes it, and writes it back.
// The template sets no index field, so every lookup walks the whole
// type; write-backs land at the list's end, so matches sit at random
// depths. IDs start at 1 because a zero field is a wildcard.
func scanLoop(c *client) {
	g := newScanGen(c.seed, c.id, c.of)
	res := newResidents(c.seed, pairPayload)
	check := func(e tuplespace.Entry, id int) (Task, bool) {
		t, _ := e.(Task)
		return t, t.ID == id && res.ok(id, t.Payload)
	}
	for !c.stop.Load() {
		id := g.next()
		o := c.log.begin()
		e, err := c.sp.ReadIfExists(Task{ID: id}, nil)
		_, ok := check(e, id)
		if !c.log.end(o, opRead, err, ok) {
			return
		}
		o = c.log.begin()
		e, err = c.sp.TakeIfExists(Task{ID: id}, nil)
		t, ok := check(e, id)
		if !c.log.end(o, opTake, err, ok) {
			return
		}
		o = c.log.begin()
		_, err = c.sp.Write(t, nil, tuplespace.Forever)
		if !c.log.end(o, opWrite, err, true) {
			return
		}
	}
}

// bagLoop is the paper's traffic. Client 0 is the master: it writes a
// batch of keyed tasks, then takes one result per task with an empty
// template. Every other client is a worker: take any task, write its
// result under the task's key. With one client (the traced pass) the
// master does the workers' part itself between writing and collecting.
func bagLoop(c *client) {
	g := newBagGen(c.seed)
	if c.id != 0 {
		for bagWork(c, g) {
		}
		return
	}
	workers := c.of - 1
	seen := make([]bool, bagBatch)
	for batch := 0; !c.stop.Load(); batch++ {
		base := batch*bagBatch + 1
		for s := 0; s < bagBatch; s++ {
			o := c.log.begin()
			_, err := c.sp.Write(Task{Job: g.keys[s], ID: base + s, Payload: g.pay.data[s]}, nil, tuplespace.Forever)
			if !c.log.end(o, opWrite, err, true) {
				return
			}
		}
		for s := 0; workers == 0 && s < bagBatch; s++ {
			if !bagWork(c, g) {
				return
			}
		}
		for i := range seen {
			seen[i] = false
		}
		for s := 0; s < bagBatch; s++ {
			o := c.log.begin()
			e, err := c.sp.Take(Result{}, nil, opTimeout)
			r, _ := e.(Result)
			slot := r.ID - base
			// Each result must belong to this batch, be new, and carry
			// the digest of the payload written for its slot: none lost,
			// none duplicated, none corrupted.
			ok := err == nil && slot >= 0 && slot < bagBatch && !seen[slot] &&
				r.Job == g.keys[slot] && bytes.Equal(r.Payload, digest(g.pay.data[slot]))
			if ok {
				seen[slot] = true
			}
			if !c.log.end(o, opTake, err, ok) {
				return
			}
		}
	}
	// One stop task per worker ends the workers without a timed-out take.
	for w := 0; w < workers; w++ {
		o := c.log.begin()
		_, err := c.sp.Write(Task{Job: stopJob, ID: -1}, nil, tuplespace.Forever)
		if !c.log.end(o, opWrite, err, true) {
			return
		}
	}
}

// bagWork takes one task and writes its result. It reports false when
// the task was a stop task or an operation failed.
func bagWork(c *client, g *bagGen) bool {
	o := c.log.begin()
	e, err := c.sp.Take(Task{}, nil, opTimeout)
	t, _ := e.(Task)
	if t.Job == stopJob {
		c.log.end(o, opTake, err, true)
		return false
	}
	ok := t.ID > 0
	if ok {
		slot := (t.ID - 1) % bagBatch
		ok = t.Job == g.keys[slot] && g.pay.ok(slot, t.Payload)
	}
	if !c.log.end(o, opTake, err, ok) {
		return false
	}
	o = c.log.begin()
	_, err = c.sp.Write(Result{Job: t.Job, ID: t.ID, Payload: digest(t.Payload)}, nil, tuplespace.Forever)
	return c.log.end(o, opWrite, err, true)
}
