package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/space"
)

// config is what the command line fixes for every pass of a run.
type config struct {
	seed    int64
	seconds time.Duration // length of the timed window
	slice   time.Duration // length of one slice of it
	outDir  string
}

// setupRepeats is how many times a timed run builds its cluster; setup_s
// is the median, because one set-up is a single sample of a noisy box.
// A variable only so the smoke test can lower it.
var setupRepeats = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload's run produced.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Error     string             `json:"error,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
}

// fail marks the report incorrect, keeping the first reason.
func (r *report) fail(err error) {
	r.Correct = false
	if r.Error == "" && err != nil {
		r.Error = err.Error()
	}
}

// setUp builds w's cluster, runs its preload through a TCP client (and,
// for a durable shard, restarts it so the residents come back through
// WAL recovery), dials n clients and primes them. The returned duration
// is setup_s.
func setUp(w *workload, cfg config, n int, tr *tracer) (cl *cluster, handles []space.Space, took time.Duration, err error) {
	dir := dataDir(w, cfg)
	if w.spec.durable {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, 0, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, 0, err
		}
	}
	start := time.Now()
	if cl, err = newCluster(w.spec, dir, tr); err != nil {
		return nil, nil, 0, err
	}
	defer func(built *cluster) {
		if err != nil {
			built.close()
		}
	}(cl)
	if w.preload != nil {
		loader, err := cl.dial("loader")
		if err != nil {
			return nil, nil, 0, err
		}
		if err := w.preload(cfg.seed, loader); err != nil {
			return nil, nil, 0, fmt.Errorf("preload: %w", err)
		}
		cl.hangUp()
	}
	if w.spec.durable {
		info, err := cl.restart()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("restart: %w", err)
		}
		if info.Restored != durResidents {
			return nil, nil, 0, fmt.Errorf("restart recovered %d residents, want %d", info.Restored, durResidents)
		}
	}
	handles = make([]space.Space, n)
	for i := range handles {
		if handles[i], err = cl.dial(fmt.Sprintf("client%d", i)); err != nil {
			return nil, nil, 0, err
		}
	}
	if w.prime > 0 {
		if err = prime(w, handles, cfg.seed, w.prime); err != nil {
			return nil, nil, 0, err
		}
	}
	return cl, handles, time.Since(start), nil
}

// dataDir is where w's durable shard keeps its files.
func dataDir(w *workload, cfg config) string { return filepath.Join(cfg.outDir, "data", w.name) }

// tearDown closes the cluster and removes a durable shard's files.
func tearDown(w *workload, cfg config, cl *cluster) {
	cl.close()
	if w.spec.durable {
		os.RemoveAll(dataDir(w, cfg))
	}
}

// tick is the sampler's view of the process at a slice boundary.
type tick struct {
	at      time.Duration
	ops     int64
	mallocs uint64
	bytes   uint64
}

// pass is one stretch of client traffic against one cluster.
type pass struct {
	ticks  []tick // warm-up ends at ticks[0]; slice i is ticks[i]..ticks[i+1]
	logs   []*opLog
	lagMax uint64 // largest replication lag seen at a slice boundary
}

// traffic is a set of client loops in flight.
type traffic struct {
	p     *pass
	start time.Time
	ops   atomic.Int64
	stop  atomic.Bool
	wg    sync.WaitGroup
}

// launch starts w's client loop on every handle.
func launch(w *workload, handles []space.Space, seed int64, tr *tracer) *traffic {
	t := &traffic{p: &pass{}, start: time.Now()}
	for i, h := range handles {
		l := &opLog{start: t.start, ops: &t.ops, tr: tr, samples: make([]sample, 0, 1<<16)}
		t.p.logs = append(t.p.logs, l)
		c := &client{id: i, of: len(handles), seed: seed, sp: h, stop: &t.stop, log: l}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			// A client that gives up (a failed op) ends the pass for all.
			defer t.stop.Store(true)
			w.loop(c)
		}()
	}
	return t
}

// finish stops the clients and waits for them.
func (t *traffic) finish() *pass {
	t.stop.Store(true)
	t.wg.Wait()
	return t.p
}

// runPass runs w's clients for a warm-up plus d, sampling the op counter
// and the allocator at every slice boundary.
func runPass(w *workload, cl *cluster, handles []space.Space, cfg config, d time.Duration, tr *tracer) *pass {
	warmup := time.Second
	if d < 4*time.Second {
		warmup = d / 4
	}
	if tr != nil {
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	t := launch(w, handles, cfg.seed, tr)
	p := t.p
	snap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.ticks = append(p.ticks, tick{at: time.Since(t.start), ops: t.ops.Load(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc})
		for _, n := range cl.nodes {
			if n.primary != nil {
				if lag := n.primary.Lag(); lag > p.lagMax {
					p.lagMax = lag
				}
			}
		}
	}
	time.Sleep(warmup)
	snap()
	for time.Since(t.start) < warmup+d && !t.stop.Load() {
		time.Sleep(cfg.slice)
		snap()
	}
	return t.finish()
}

// prime runs w's clients until they have completed at least n
// operations: a fixed amount of work, so it can be part of set-up time.
func prime(w *workload, handles []space.Space, seed int64, n int64) error {
	t := launch(w, handles, seed, nil)
	for t.ops.Load() < n && !t.stop.Load() {
		time.Sleep(time.Millisecond)
	}
	if _, failed, err := t.finish().outcome(); failed > 0 {
		return fmt.Errorf("prime: %w", err)
	}
	return nil
}

// outcome totals the clients' attempts and failures.
func (p *pass) outcome() (attempted, failed int64, err error) {
	for _, l := range p.logs {
		attempted += l.attempted
		failed += l.failed
		if err == nil {
			err = l.err
		}
	}
	return attempted, failed, err
}

// rate is completed operations per second over the whole timed window.
func (p *pass) rate() float64 {
	first, last := p.ticks[0], p.ticks[len(p.ticks)-1]
	if last.at == first.at {
		return 0
	}
	return float64(last.ops-first.ops) / (last.at - first.at).Seconds()
}

// latencyNames is the per-slice latency series of each op kind.
var latencyNames = [...]string{opWrite: "write_p50_us", opTake: "take_p50_us", opRead: "read_p50_us"}

// sliceSeries cuts the timed window into its slices and returns one
// value per slice for each end-to-end metric. A slice in which nothing
// completed contributes no value.
func (p *pass) sliceSeries() map[string][]float64 {
	out := make(map[string][]float64)
	n := len(p.ticks) - 1
	if n < 1 {
		return out
	}
	lat := make([][3][]float64, n) // per slice, per op kind, µs
	for _, l := range p.logs {
		i := 0
		for _, s := range l.samples {
			if s.at < p.ticks[0].at {
				continue
			}
			for i < n && s.at >= p.ticks[i+1].at {
				i++
			}
			if i == n {
				break
			}
			lat[i][s.kind] = append(lat[i][s.kind], float64(s.lat)/float64(time.Microsecond))
		}
	}
	for i := 0; i < n; i++ {
		a, b := p.ticks[i], p.ticks[i+1]
		dops := float64(b.ops - a.ops)
		if dops <= 0 {
			continue
		}
		out["ops_per_s"] = append(out["ops_per_s"], dops/(b.at-a.at).Seconds())
		out["allocs_per_op"] = append(out["allocs_per_op"], float64(b.mallocs-a.mallocs)/dops)
		out["alloc_bytes_per_op"] = append(out["alloc_bytes_per_op"], float64(b.bytes-a.bytes)/dops)
		for kind, name := range latencyNames {
			if len(lat[i][kind]) > 0 {
				out[name] = append(out[name], median(lat[i][kind]))
			}
		}
	}
	return out
}

// endToEnd is each end-to-end metric as the median over slices, with
// the quartiles -compare needs to tell a difference from noise.
func (p *pass) endToEnd() map[string]summary {
	series := p.sliceSeries()
	out := make(map[string]summary)
	for name, unit := range map[string]string{
		"ops_per_s": "ops/s", "write_p50_us": "us", "take_p50_us": "us",
		"allocs_per_op": "allocs/op", "alloc_bytes_per_op": "B/op",
	} {
		out[name] = summarize(series[name], unit)
	}
	return out
}

// clientView is the load generator's own diagnostics: tails, the read
// median that has no end-to-end slot, and how noisy the slices were.
func (p *pass) clientView() map[string]metric {
	var byKind [3][]float64
	for _, l := range p.logs {
		for _, s := range l.samples {
			if s.at >= p.ticks[0].at {
				byKind[s.kind] = append(byKind[s.kind], float64(s.lat)/float64(time.Microsecond))
			}
		}
	}
	total := 0
	for k := range byKind {
		sort.Float64s(byKind[k])
		total += len(byKind[k])
	}
	tail := func(v []float64) float64 { return percentile(v, supportedTail(len(v), 0.99)) }
	series := p.sliceSeries()
	return map[string]metric{
		"client.write_p99_us":    {tail(byKind[opWrite]), "us"},
		"client.take_p99_us":     {tail(byKind[opTake]), "us"},
		"client.read_p50_us":     {median(series["read_p50_us"]), "us"},
		"client.samples":         {float64(total), "count"},
		"client.slice_iqr_ratio": {summarize(series["ops_per_s"], "").spread(), "ratio"},
	}
}

// timedRun is the end-to-end measurement: tracing off, w's own client
// count, cfg.seconds of timed slices, every result checked.
func timedRun(w *workload, cfg config) *report {
	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Correct: true}
	var (
		cl      *cluster
		handles []space.Space
		setups  []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			tearDown(w, cfg, cl)
		}
		var took time.Duration
		var err error
		if cl, handles, took, err = setUp(w, cfg, w.clients, nil); err != nil {
			rep.fail(fmt.Errorf("set-up: %w", err))
			return rep
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { tearDown(w, cfg, cl) }()

	p := runPass(w, cl, handles, cfg, cfg.seconds, nil)
	var err error
	if rep.Attempted, rep.Failed, err = p.outcome(); rep.Failed > 0 {
		rep.fail(err)
	}
	if err := w.verify(cl, handles[0]); err != nil {
		rep.fail(fmt.Errorf("end state: %w", err))
	}
	rep.EndToEnd = p.endToEnd()
	rep.EndToEnd["setup_s"] = summarize(setups, "s")
	return rep
}

// layerCounts are the counters the program's layers export, summed over
// the cluster's shards; passes report their deltas. The WAL counters and
// the byte counts exist on a traced cluster only.
type layerCounts struct {
	reads, takes, blocked, timeouts uint64 // tuplespace.Space.Stats
	admitted, rejected, shed        uint64 // Admission.Vitals
	fsyncs, records                 uint64 // WAL sync histogram, wal:records
	snapshots, segments             uint64 // wal:snapshots, wal:segments
	walBytes, wireBytes             int64  // segment bytes written, relay bytes
	shipped                         uint64 // Primary.Seq
}

func (c *cluster) counts() layerCounts {
	var lc layerCounts
	for _, n := range c.nodes {
		st := n.local.TS.Stats()
		lc.reads += st.Reads
		lc.takes += st.Takes
		lc.blocked += st.Blocked
		lc.timeouts += st.Timeouts
		v := n.svc.Admission().Vitals()
		lc.admitted += v.Admitted
		lc.rejected += v.Rejected
		lc.shed += v.Shed
		if n.probe != nil {
			lc.walBytes += n.probe.bytes
		}
		if n.relay != nil {
			lc.wireBytes += n.relay.bytes.Load()
		}
		if n.primary != nil {
			lc.shipped += n.primary.Seq()
		}
	}
	if c.ctr != nil {
		lc.fsyncs = c.syncHist.Count()
		lc.records = c.ctr.Get(metrics.CounterWALRecords)
		lc.snapshots = c.ctr.Get(metrics.CounterWALSnapshots)
		lc.segments = c.ctr.Get(metrics.CounterWALSegments)
	}
	return lc
}

// tracedRun produces the per-layer metrics. It is separate from the
// timed run so tracing costs the end-to-end numbers nothing: an untraced
// and a traced single-client pass of equal length, each on a fresh
// cluster, whose ratio is the tracing overhead; a short untraced pass at
// the workload's client count for the client.* view and the program's
// counters; and the layer ladder.
func tracedRun(w *workload, cfg config) *report {
	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Correct: true, PerLayer: make(map[string]metric)}
	add := func(m map[string]metric) {
		for k, v := range m {
			rep.PerLayer[k] = v
		}
	}
	tally := func(p *pass) float64 {
		attempted, failed, err := p.outcome()
		rep.Attempted += attempted
		rep.Failed += failed
		if failed > 0 {
			rep.fail(err)
		}
		return float64(attempted)
	}
	verify := func(cl *cluster, h space.Space) {
		if err := w.verify(cl, h); err != nil {
			rep.fail(fmt.Errorf("end state: %w", err))
		}
	}

	cl, handles, _, err := setUp(w, cfg, w.clients, nil)
	if err != nil {
		rep.fail(fmt.Errorf("set-up: %w", err))
		return rep
	}
	// The single-client pass goes first: like the traced pass it is
	// compared with, it then starts on a freshly loaded cluster, and on
	// scan_20k_tcp a population that takes and write-backs have shuffled
	// in memory scans measurably slower than a fresh one.
	single := cfg.seconds * 3 / 16
	plain := runPass(w, cl, handles[:1], cfg, single, nil)
	tally(plain)
	before := cl.counts()
	view := runPass(w, cl, handles, cfg, cfg.seconds/4, nil)
	after := cl.counts()
	add(view.clientView())
	add(programCounts(before, after, tally(view)))
	rep.PerLayer["replica.lag_max"] = metric{float64(view.lagMax), "count"}
	verify(cl, handles[0])
	tearDown(w, cfg, cl)

	tr := newTracer()
	cl, handles, _, err = setUp(w, cfg, 1, tr)
	if err != nil {
		rep.fail(fmt.Errorf("traced set-up: %w", err))
		return rep
	}
	before = cl.counts()
	traced := runPass(w, cl, handles, cfg, single, tr)
	after = cl.counts()
	ops := tally(traced)
	verify(cl, handles[0])
	tearDown(w, cfg, cl)

	spans := tr.snapshot()
	if err := writeChromeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), spans); err != nil {
		rep.fail(err)
	}
	writes := 0
	for _, s := range traced.logs[0].samples {
		if s.kind == opWrite {
			writes++
		}
	}
	add(stageMetrics(spans))
	add(tracedCounts(before, after, ops, float64(writes*w.payload)))
	rep.PerLayer["replica.ship_p50_us"] = metric{median(durations(spans, spanShip)), "us"}
	rep.PerLayer["trace.overhead_ratio"] = metric{ratio(traced.rate(), plain.rate()), "ratio"}

	layers, err := ladder(cfg, cfg.seconds*3/10)
	if err != nil {
		rep.fail(fmt.Errorf("ladder: %w", err))
	}
	add(layers)
	return rep
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageMetrics turns the traced pass's spans into mean self time per
// client operation for each stage, and checks that the stages account
// for the wall time the client spent: stage.sum_over_e2e is the sum of
// the stage rows over the time from the first operation's start to the
// last one's end, per operation. What it misses of 1 is time the load
// generator spent between operations.
func stageMetrics(spans []span) map[string]metric {
	var ops float64
	var first, last time.Duration
	for _, s := range spans {
		if s.Name != spanOp {
			continue
		}
		if ops == 0 {
			first = s.Start
		}
		last = s.End
		ops++
	}
	self := selfTimes(spans)
	perOp := func(d time.Duration) float64 { return ratio(float64(d)/float64(time.Microsecond), ops) }
	out := map[string]metric{
		"stage.client_wire_us": {perOp(self[spanOp]), "us"},
		"stage.server_us":      {perOp(self[spanDispatch]), "us"},
		"stage.wal_append_us":  {perOp(self[spanAppend]), "us"},
		"stage.wal_fsync_us":   {perOp(self[spanFsync]), "us"},
		"stage.ship_us":        {perOp(self[spanShip]), "us"},
	}
	var sum float64
	for _, m := range out {
		sum += m.Value
	}
	out["stage.sum_over_e2e"] = metric{ratio(sum, perOp(last-first)), "ratio"}
	return out
}

// programCounts reports the counters every cluster has, over a pass at
// the workload's own client count: what the store, admission and the
// replication stream counted while the clients made ops operations.
func programCounts(a, b layerCounts, ops float64) map[string]metric {
	return map[string]metric{
		"tuplespace.blocked_ratio": {ratio(float64(b.blocked-a.blocked), float64(b.reads-a.reads+b.takes-a.takes)), "ratio"},
		"tuplespace.timeouts":      {float64(b.timeouts - a.timeouts), "count"},
		"space.admitted":           {float64(b.admitted - a.admitted), "count"},
		"space.rejected":           {float64(b.rejected - a.rejected), "count"},
		"space.shed":               {float64(b.shed - a.shed), "count"},
		"replica.records_per_op":   {ratio(float64(b.shipped-a.shipped), ops), "1/op"},
	}
}

// tracedCounts reports what only the traced cluster can count, per
// client operation: the WAL's records, syncs and files, the segment bytes
// written per byte of payload the client wrote, and the bytes that
// crossed the client's sockets.
func tracedCounts(a, b layerCounts, ops, userBytes float64) map[string]metric {
	return map[string]metric{
		"wal.fsyncs_per_op":            {ratio(float64(b.fsyncs-a.fsyncs), ops), "1/op"},
		"wal.records_per_op":           {ratio(float64(b.records-a.records), ops), "1/op"},
		"wal.snapshots":                {float64(b.snapshots - a.snapshots), "count"},
		"wal.segments":                 {float64(b.segments - a.segments), "count"},
		"wal.disk_bytes_per_user_byte": {ratio(float64(b.walBytes-a.walBytes), userBytes), "ratio"},
		"transport.wire_bytes_per_op":  {ratio(float64(b.wireBytes-a.wireBytes), ops), "B/op"},
	}
}
