package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// prober times calls into one layer at a time from a single goroutine.
type prober struct {
	budget time.Duration // wall time one probe may take, roughly
	out    map[string]metric
	err    error
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// measure finds an iteration count n at which fn(n) fills a quarter of
// the budget, runs it three more times at that n, and returns the median
// time and allocation count per iteration.
func (p *prober) measure(fn func(n int)) (ns, allocs float64) {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		took := time.Since(t0)
		if took >= p.budget/4 || n >= 1<<24 || p.err != nil {
			break
		}
		next := 2 * n
		if took > 0 {
			if est := int(float64(n) * float64(p.budget/4) / float64(took)); est > next {
				next = est
			}
		}
		n = next
	}
	var times, mallocs []float64
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(n)
		took := time.Since(t0)
		runtime.ReadMemStats(&m1)
		times = append(times, float64(took)/float64(n))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(times), median(mallocs)
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// pairs replays the pair_mem_tcp op sequence against any Space: one
// iteration is one keyed Write and the Take of it.
func (p *prober) pairs(sp space.Space, seed int64) func(n int) {
	g := newPairGen(seed, 0)
	return func(n int) {
		for i := 0; i < n; i++ {
			slot, id := g.next()
			if _, err := sp.Write(Task{Job: g.keys[slot], ID: id, Payload: g.pay.data[slot]}, nil, tuplespace.Forever); err != nil {
				p.fail(err)
				return
			}
			if _, err := sp.Take(Task{Job: g.keys[slot]}, nil, opTimeout); err != nil {
				p.fail(err)
				return
			}
		}
	}
}

// countingSink is a RecordSink that keeps nothing: what remains of a
// journaled pair over a bare one is the journal's own encoding.
type countingSink struct{ records, bytes int }

func (s *countingSink) Append(b []byte) error {
	s.records++
	s.bytes += len(b)
	return nil
}

// ladder measures each layer on the operation path by itself, and the
// same pair sequence against successively taller stacks, so a change in
// an end-to-end number can be matched to the layer that moved. total is
// the wall time it may spend; it is split evenly over the probes.
func ladder(cfg config, total time.Duration) (map[string]metric, error) {
	const probes = 32
	p := &prober{budget: total / probes, out: make(map[string]metric)}
	clk := vclock.NewReal()
	seed := cfg.seed
	const us = float64(time.Microsecond)

	// --- tuplespace: the store alone ---
	g := newPairGen(seed, 0)
	storePairs := func(ts *tuplespace.Space) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				slot, id := g.next()
				if _, err := ts.Write(Task{Job: g.keys[slot], ID: id, Payload: g.pay.data[slot]}, nil, tuplespace.Forever); err != nil {
					p.fail(err)
				}
				if _, err := ts.Take(Task{Job: g.keys[slot]}, nil, opTimeout); err != nil {
					p.fail(err)
				}
			}
		}
	}
	pairNs, pairAllocs := p.measure(storePairs(tuplespace.New(clk)))
	p.set("tuplespace.pair_ns", pairNs, "ns")
	p.set("tuplespace.pair_allocs", pairAllocs, "allocs/op")

	ts := tuplespace.New(clk)
	var tokSeq uint64
	tokNs, _ := p.measure(func(n int) {
		for i := 0; i < n; i++ {
			slot, id := g.next()
			tokSeq += 2
			if _, err := ts.WriteTok(Task{Job: g.keys[slot], ID: id, Payload: g.pay.data[slot]}, nil, tuplespace.Forever, tuplespace.OpToken{Client: "ladder", Seq: tokSeq}); err != nil {
				p.fail(err)
			}
			if _, err := ts.TakeTok(Task{Job: g.keys[slot]}, nil, opTimeout, tuplespace.OpToken{Client: "ladder", Seq: tokSeq + 1}); err != nil {
				p.fail(err)
			}
		}
	})
	p.set("tuplespace.tok_pair_ns", tokNs, "ns")

	// A 2,000-deep backlog drained by empty-template takes, as a bag
	// worker drains it. Only the takes are timed.
	ts = tuplespace.New(clk)
	bag := newBagGen(seed)
	const backlog = 2000
	var drains []float64
	for deadline := time.Now().Add(p.budget); time.Now().Before(deadline) || len(drains) < 3; {
		for i := 0; i < backlog; i++ {
			if _, err := ts.Write(Task{Job: bag.keys[i%bagBatch], ID: i + 1}, nil, tuplespace.Forever); err != nil {
				p.fail(err)
			}
		}
		t0 := time.Now()
		for i := 0; i < backlog; i++ {
			if _, err := ts.TakeIfExists(Task{}, nil); err != nil {
				p.fail(err)
			}
		}
		drains = append(drains, float64(time.Since(t0))/backlog)
	}
	p.set("tuplespace.drain_take_ns", median(drains), "ns")

	// A parked Take and the Write that satisfies it: from just before the
	// Write to the taker having its entry.
	ts = tuplespace.New(clk)
	var wakes []float64
	for deadline := time.Now().Add(p.budget); time.Now().Before(deadline) || len(wakes) < 10; {
		var done atomic.Int64
		go func() {
			if _, err := ts.Take(Task{Job: "wake"}, nil, opTimeout); err != nil {
				p.fail(err)
			}
			done.Store(int64(time.Now().UnixNano()))
		}()
		for ts.Stats().Waiting == 0 {
			runtime.Gosched()
		}
		t0 := time.Now()
		if _, err := ts.Write(Task{Job: "wake", ID: 1}, nil, tuplespace.Forever); err != nil {
			p.fail(err)
		}
		for done.Load() == 0 {
			runtime.Gosched()
		}
		wakes = append(wakes, float64(done.Load()-t0.UnixNano())/us)
	}
	p.set("tuplespace.blocked_wake_us", median(wakes), "us")

	// 20,000 residents, looked up by a field that is not the index.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ts = tuplespace.New(clk)
	res := newResidents(seed, pairPayload)
	for id := 1; id <= scanResidents; id++ {
		if _, err := ts.Write(Task{Job: residentJob(id), ID: id, Payload: res.payload(id)}, nil, tuplespace.Forever); err != nil {
			p.fail(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.set("tuplespace.resident_bytes_per_entry", float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/float64(scanResidents), "B")
	sg := newScanGen(seed, 0, 1)
	readNs, _ := p.measure(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ts.ReadIfExists(Task{ID: sg.next()}, nil); err != nil {
				p.fail(err)
			}
		}
	})
	p.set("tuplespace.scan_read_us", readNs/us, "us")
	takeNs, takeAllocs := p.measure(func(n int) {
		for i := 0; i < n; i++ {
			e, err := ts.TakeIfExists(Task{ID: sg.next()}, nil)
			if err != nil {
				p.fail(err)
				return
			}
			if _, err := ts.Write(e, nil, tuplespace.Forever); err != nil {
				p.fail(err)
			}
		}
	})
	p.set("tuplespace.scan_take_us", takeNs/us, "us")
	p.set("tuplespace.scan_allocs_per_take", takeAllocs, "allocs/op")

	// --- journal: the pair again with a journal that stores nothing ---
	ts = tuplespace.New(clk)
	sink := &countingSink{}
	p.fail(ts.AttachJournal(tuplespace.NewJournalSink(sink)))
	jNs, _ := p.measure(storePairs(ts))
	p.set("journal.encode_ns_per_record", (jNs-pairNs)/2, "ns")
	recordBytes := ratio(float64(sink.bytes), float64(sink.records))
	p.set("journal.bytes_per_record", recordBytes, "B")

	// --- wal: appends of a journal-record-sized payload ---
	dir := filepath.Join(cfg.outDir, "data", "ladder")
	defer os.RemoveAll(dir)
	record := make([]byte, int(recordBytes)+1)
	for _, policy := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncAlways} {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		log, _, err := wal.Open(dir, wal.Options{Fsync: policy})
		if err != nil {
			return nil, err
		}
		ns, _ := p.measure(func(n int) {
			for i := 0; i < n; i++ {
				if err := log.Append(record); err != nil {
					p.fail(err)
					return
				}
			}
		})
		p.fail(log.Close())
		if policy == wal.FsyncNever {
			p.set("wal.append_never_ns", ns, "ns")
		} else {
			p.set("wal.append_always_us", ns/us, "us")
		}
	}

	// Snapshot and recovery of a 20,000-entry durable space.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	dopts := space.DurableOptions{Dir: dir, Fsync: wal.FsyncNever, SnapshotBytes: -1}
	local, dur, err := space.NewLocalDurable(clk, dopts)
	if err != nil {
		return nil, err
	}
	for id := 1; id <= scanResidents; id++ {
		if _, err := local.Write(Task{Job: residentJob(id), ID: id, Payload: res.payload(id)}, nil, tuplespace.Forever); err != nil {
			p.fail(err)
		}
	}
	var snaps, recovers []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		p.fail(dur.SnapshotNow())
		snaps = append(snaps, float64(time.Since(t0))/float64(time.Millisecond))
		local.Close()
		p.fail(dur.Close())
		if local, dur, err = space.NewLocalDurable(clk, dopts); err != nil {
			return nil, err
		}
		if got := dur.Info().Restored; got != scanResidents {
			p.fail(fmt.Errorf("ladder: recovered %d of %d entries", got, scanResidents))
		}
		recovers = append(recovers, float64(dur.Info().Elapsed)/float64(time.Millisecond))
	}
	local.Close()
	p.fail(dur.Close())
	p.set("wal.snapshot_ms_20k", median(snaps), "ms")
	p.set("wal.recover_ms_20k", median(recovers), "ms")

	// --- transport: an echo call, without and with a socket ---
	echo := transport.NewServer()
	echo.Handle("echo", func(arg interface{}) (interface{}, error) { return arg, nil })
	small := Task{Job: g.keys[0], ID: 1, Payload: g.pay.data[0]}
	call := func(c transport.Client, arg interface{}) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := c.Call("echo", arg); err != nil {
					p.fail(err)
					return
				}
			}
		}
	}
	network := transport.NewNetwork(clk, transport.Loopback())
	network.Listen("echo", echo)
	calls0, bytes0 := network.Stats()
	inprocNs, inprocAllocs := p.measure(call(network.Dial("echo"), small))
	calls1, bytes1 := network.Stats()
	p.set("transport.inproc_call_ns", inprocNs, "ns")
	p.set("transport.inproc_call_allocs", inprocAllocs, "allocs/op")
	p.set("transport.payload_bytes_per_call", ratio(float64(bytes1-bytes0), float64(calls1-calls0)), "B")

	ln, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		return nil, err
	}
	tc, err := transport.DialTCP(ln.Addr())
	if err != nil {
		ln.Close()
		return nil, err
	}
	tcpNs, tcpAllocs := p.measure(call(tc, small))
	bigNs, _ := p.measure(call(tc, Task{Job: bag.keys[0], ID: 1, Payload: bag.pay.data[0]}))
	tc.Close()
	ln.Close()
	p.set("transport.tcp_call_us", tcpNs/us, "us")
	p.set("transport.tcp_call_allocs", tcpAllocs, "allocs/op")
	p.set("transport.tcp_call_1k_us", bigNs/us, "us")
	p.set("transport.socket_self_us", (tcpNs-inprocNs)/us, "us")

	deadline := time.Now().Add(time.Hour)
	frameNs, _ := p.measure(func(n int) {
		for i := 0; i < n; i++ {
			inner, _, _ := transport.Unframe(transport.Frame(small, deadline, transport.PriHigh))
			if inner == nil {
				p.fail(fmt.Errorf("ladder: frame lost its argument"))
			}
		}
	})
	p.set("transport.frame_ns", frameNs, "ns")

	// --- space: Local, then Proxy and Service over both bindings ---
	localNs, _ := p.measure(p.pairs(space.NewLocal(clk), seed))
	p.set("space.local_pair_ns", localNs, "ns")

	svcLocal := space.NewLocal(clk)
	svcSrv := transport.NewServer()
	svc := space.NewService(svcLocal, svcSrv)
	var readArg interface{} // what the transport hands the ReadIfExists handler
	svcSrv.WrapPrefix("space.ReadIfExists", func(_ string, next transport.Handler) transport.Handler {
		return func(arg interface{}) (interface{}, error) {
			readArg = arg
			return next(arg)
		}
	})
	network.Listen("space", svcSrv)
	px := space.NewProxy(network.Dial("space"))
	inprocPairNs, inprocPairAllocs := p.measure(p.pairs(px, seed))
	p.set("space.proxy_inproc_pair_us", inprocPairNs/us, "us")
	p.set("space.proxy_inproc_pair_allocs", inprocPairAllocs, "allocs/op")
	framedNs, _ := p.measure(p.pairs(space.NewProxy(network.Dial("space")).WithOpTimeout(clk, opTimeout), seed))
	p.set("space.deadline_frame_ns", (framedNs-inprocPairNs)/2, "ns")

	// Admission on and off, on a handler cheap enough for it to show: a
	// keyed read dispatched straight into the server, replaying the
	// argument a real proxy call delivered.
	if _, err := px.Write(small, nil, tuplespace.Forever); err != nil {
		p.fail(err)
	}
	if _, err := px.ReadIfExists(Task{Job: small.Job}, nil); err != nil {
		p.fail(err)
	}
	dispatch := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := svcSrv.Dispatch("space.ReadIfExists", readArg); err != nil {
				p.fail(err)
				return
			}
		}
	}
	// The difference is a few percent of the call, so on and off alternate
	// and the median of the paired differences is reported.
	offNs, _ := p.measure(dispatch)
	n := int(float64(p.budget/10)/offNs) + 1
	timed := func() float64 {
		t0 := time.Now()
		dispatch(n)
		return float64(time.Since(t0)) / float64(n)
	}
	var admission []float64
	for i := 0; i < 5; i++ {
		svc.Admission().Configure(space.AdmissionConfig{Clock: clk, MaxInflight: 1024})
		on := timed()
		svc.Admission().Configure(space.AdmissionConfig{})
		admission = append(admission, on-timed())
	}
	p.set("space.admission_ns", median(admission), "ns")

	mem, err := newCluster(clusterSpec{shards: 1}, "", nil)
	if err != nil {
		return nil, err
	}
	var tcpPairNs float64
	if h, err := mem.dial("ladder"); err != nil {
		p.fail(err)
	} else {
		tcpPairNs, _ = p.measure(p.pairs(h, seed))
	}
	mem.close()
	p.set("space.proxy_tcp_pair_us", tcpPairNs/us, "us")

	// --- shard: the router over two local shards ---
	router := func(exactlyOnce bool) *shard.Router {
		r, err := shard.New(shard.Options{Clock: clk, Seed: "ladder", ExactlyOnce: exactlyOnce}, []shard.Shard{
			{ID: "shard0", Space: space.NewLocal(clk)},
			{ID: "shard1", Space: space.NewLocal(clk)},
		})
		p.fail(err)
		return r
	}
	plain := router(false)
	routerNs, _ := p.measure(p.pairs(plain, seed))
	p.set("shard.router_local_pair_ns", routerNs-localNs, "ns")
	eoNs, _ := p.measure(p.pairs(router(true), seed))
	p.set("shard.eo_pair_ns", eoNs-routerNs, "ns")

	for s, key := range bag.keys {
		if _, err := plain.Write(Task{Job: key, ID: s + 1}, nil, tuplespace.Forever); err != nil {
			p.fail(err)
		}
	}
	if counts, err := plain.ShardCounts(); err != nil {
		p.fail(err)
	} else {
		most := 0
		for _, types := range counts {
			for _, n := range types {
				if n > most {
					most = n
				}
			}
		}
		p.set("shard.key_share_max", float64(most)/bagBatch, "ratio")
	}
	scatterNs, _ := p.measure(func(n int) {
		for i := 0; i < n; i++ {
			e, err := plain.TakeIfExists(Task{}, nil)
			if err != nil {
				p.fail(err)
				return
			}
			if _, err := plain.Write(e, nil, tuplespace.Forever); err != nil {
				p.fail(err)
			}
		}
	})
	p.set("shard.scatter_take_us", scatterNs/us, "us")

	// --- replica: the TCP pair again with a sync-shipped backup ---
	repl, err := newCluster(clusterSpec{shards: 1, replicated: true}, "", nil)
	if err != nil {
		return nil, err
	}
	var syncNs float64
	if h, err := repl.dial("ladder"); err != nil {
		p.fail(err)
	} else {
		syncNs, _ = p.measure(p.pairs(h, seed))
	}
	repl.close()
	p.set("replica.sync_pair_us", (syncNs-tcpPairNs)/us, "us")

	return p.out, p.err
}
