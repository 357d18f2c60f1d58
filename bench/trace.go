package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/transport"
)

// Span names. Each is a layer boundary the benchmark can interpose on
// from outside the program; a stage metric is the mean self time of the
// spans of one name per client operation.
const (
	spanOp       = "client.op"       // the Proxy or Router call, root
	spanDispatch = "server.dispatch" // middleware around the shard's space.* handlers
	spanAppend   = "wal.append"      // segment write start to journal tee
	spanFsync    = "wal.fsync"       // segment write end to journal tee
	spanShip     = "replica.ship"    // the primary's replica.Append call to its backup
)

// span is one timed interval. Parent is the ID of the span that caused
// it (0 for a root); all spans of one client operation hang off one
// client.op root.
type span struct {
	Name       string
	ID, Parent int
	Start, End time.Duration // since the tracer's epoch
}

// tracer records spans in memory. The traced pass drives one client, so
// everything that happens on an operation's behalf — on whichever
// goroutine — is nested in time inside it, and the innermost open span
// is always the cause of the next one. That is what lets spans recorded
// in server middleware find their parent without the program carrying an
// identifier for them.
type tracer struct {
	epoch time.Time
	// on gates recording: the traced cluster's hooks are installed when it
	// is built, but only the traced pass's own operations are to be
	// recorded, not set-up's.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	open  []int // IDs of spans begun and not ended, outermost first
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// begin opens a span under the innermost open one and returns its ID
// (0, which end ignores, while recording is off).
func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and anything left open inside it).
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	for n := len(t.open); n > 0; n-- {
		if t.open[n-1] == id {
			t.open = t.open[:n-1]
			return
		}
	}
}

// closed records an already finished interval under the innermost open
// span and returns its ID, so a caller can hang a child off it.
func (t *tracer) closed(name string, parent int, start, end time.Time) int {
	if !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover. The self times of a tree add up to its
// root's duration, which is what makes the stage rows add up to the
// end-to-end figure.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - children[s.ID]
	}
	return self
}

// durations returns the length of every span called name, in µs.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Microsecond))
		}
	}
	return out
}

// maxTraceEvents caps the Chrome-trace file; the stage metrics use every
// span, the file is for looking at the first few thousand operations.
const maxTraceEvents = 20000

// writeChromeTrace writes spans in the Trace Event format that
// chrome://tracing and Perfetto load.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	if len(spans) > maxTraceEvents {
		spans = spans[:maxTraceEvents]
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// dispatchSpans is server middleware for Server.WrapPrefix: it times the
// whole handler chain below it. Installed last, so outermost.
func (t *tracer) dispatchSpans(_ string, next transport.Handler) transport.Handler {
	return func(arg interface{}) (interface{}, error) {
		id := t.begin(spanDispatch)
		defer t.end(id)
		return next(arg)
	}
}

// shipClient wraps the primary's mirror connection and times the record
// shipments on it. Heartbeats run off the operation path (and would find
// the wrong parent), so only replica.Append is a span.
type shipClient struct {
	transport.Client
	t *tracer
}

func (c shipClient) Call(method string, arg interface{}) (interface{}, error) {
	if method != "replica.Append" {
		return c.Client.Call(method, arg)
	}
	id := c.t.begin(spanShip)
	defer c.t.end(id)
	return c.Client.Call(method, arg)
}

// walProbe brackets WAL appends from the two hooks DurableOptions
// exports: WrapWriter sees the segment write begin and end, and Tee is
// called right after Log.Append (write + fsync) returns. Both run under
// the space mutex, one append at a time.
type walProbe struct {
	t          *tracer
	start, mid time.Time
	bytes      int64 // segment bytes written
}

type walProbeWriter struct {
	p *walProbe
	w io.Writer
}

func (p *walProbe) wrap(w io.Writer) io.Writer { return walProbeWriter{p: p, w: w} }

func (pw walProbeWriter) Write(b []byte) (int, error) {
	pw.p.start = time.Now()
	n, err := pw.w.Write(b)
	pw.p.mid = time.Now()
	pw.p.bytes += int64(n)
	return n, err
}

// Append implements tuplespace.RecordSink (the Tee).
func (p *walProbe) Append([]byte) error {
	end := time.Now()
	id := p.t.closed(spanAppend, 0, p.start, end)
	p.t.closed(spanFsync, id, p.mid, end)
	return nil
}

// relay is a loopback TCP forwarder that counts the bytes crossing it in
// both directions — the only place the benchmark can see wire bytes,
// since the transport's framing is internal.
type relay struct {
	ln       net.Listener
	upstream string
	bytes    atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newRelay(upstream string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	r := &relay{ln: ln, upstream: upstream}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.upstream)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(up, down)
		go r.pipe(down, up)
	}
}

func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	_, _ = io.Copy(countingWriter{dst, &r.bytes}, src) // ends when either side closes
	dst.Close()
	src.Close()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
