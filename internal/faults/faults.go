// Package faults is a seeded, deterministic fault-injection layer for the
// framework's transports. A Plan is a scripted schedule of adverse network
// and process behaviour — dropped calls, added latency, duplicated
// deliveries, one-way partitions between named endpoints, and endpoint
// crashes (scripted by virtual time, or triggered on the Nth matching call,
// before or after the handler runs). A Plan has two adapters: WrapClient
// routes one client's calls through it — a client of either transport
// binding, the in-process network under the virtual clock or TCP — and
// WrapWriter routes a WAL segment's writes (io.go). A deployment's plan is
// put on every client it dials and every log it opens by core.
//
// Determinism: probabilistic rules draw from a splitmix-style stream keyed
// by (plan seed, rule, endpoint pair) with a per-stream call counter, so a
// given seed produces the same injected schedule on every run of a
// deterministic (virtual-clock) simulation — the property the chaos suite's
// reproducibility assertions rely on. Every injected event is counted in a
// metrics.Counters under the Event* keys.
//
// The paper's claim under test is §3's fault tolerance: a worker that dies
// between Take(task) and Write(result) holds the task under a leased
// transaction, so the lease expires, the transaction aborts, and the task
// reappears for another worker. The chaos scenario suite in internal/e2e,
// internal/shard and internal/master scripts exactly those failures.
package faults

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// Event keys under which injected events are counted (see Plan.Counters).
// Crashes are additionally counted per endpoint under
// "faults:crash:<endpoint>". The strings are owned by the canonical
// metric-name set in internal/metrics/names.go.
const (
	EventDrop        = metrics.CounterFaultDrop
	EventDelay       = metrics.CounterFaultDelay
	EventDuplicate   = metrics.CounterFaultDuplicate
	EventCrash       = metrics.CounterFaultCrash
	EventPartitioned = metrics.CounterFaultPartitioned
	EventDeadCall    = metrics.CounterFaultDeadCall
)

// ErrInjected is the root of every error the fault layer injects; callers
// can errors.Is against it to distinguish injected failures from real ones
// in tests.
var ErrInjected = errors.New("faults: injected failure")

// Error is the concrete injected failure, carrying what was injected and
// where.
type Error struct {
	Kind     string // "drop", "crash", "partitioned", "dead-call"
	Endpoint string // the dead, crashed or partitioned endpoint ("" for drops)
	Method   string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Endpoint != "" {
		return fmt.Sprintf("faults: injected %s at %s (%s)", e.Kind, e.Endpoint, e.Method)
	}
	return fmt.Sprintf("faults: injected %s (%s)", e.Kind, e.Method)
}

// Unwrap makes errors.Is(err, ErrInjected) hold for every injected error.
func (e *Error) Unwrap() error { return ErrInjected }

// CrashPoint says when, relative to the handler, a crash-on-call fires.
type CrashPoint int

const (
	// BeforeHandler kills the endpoint before the handler runs: the call
	// is never delivered.
	BeforeHandler CrashPoint = iota
	// AfterHandler kills the endpoint after the handler has run
	// successfully: the operation took effect at the server but the reply
	// is lost — the scenario behind "crashed between Take and Write".
	// After-crashes only fire on calls whose handler succeeds, so a rule
	// on space.Take crashes the caller while it actually holds a task.
	AfterHandler
)

type action int

const (
	actDrop action = iota
	actDelay
	actDup
	actCrash
)

// rule is one call-triggered injection.
type rule struct {
	from, to, method string
	act              action
	point            CrashPoint
	prob             float64       // probabilistic trigger (when nth == 0)
	nth              uint64        // fire on the nth matching call of a stream
	delay            time.Duration // actDelay
	endpoint         string        // actCrash: who dies ("" = the call's from, else to)
	downFor          time.Duration // actCrash: downtime; <= 0 means forever
}

// streamKey returns the deterministic decision-stream key for a call
// matched by r. Crash rules stream per crash target so "nth" means "the
// endpoint's nth matching call" regardless of which shard it talked to;
// other rules stream per (from,to,method) pair so concurrent callers'
// schedules do not perturb each other.
func (r *rule) streamKey(i int, from, to string) string {
	if r.act == actCrash {
		return fmt.Sprintf("%d|%s", i, r.crashTarget(from, to))
	}
	return fmt.Sprintf("%d|%s|%s", i, from, to)
}

func (r *rule) crashTarget(from, to string) string {
	if r.endpoint != "" {
		return r.endpoint
	}
	if from != "" {
		return from
	}
	return to
}

func (r *rule) matches(from, to, method string) bool {
	return matchPat(r.from, from) && matchPat(r.to, to) && matchPat(r.method, method)
}

// matchPat matches s against pat: "" matches anything, a trailing '*'
// prefix-matches, anything else is exact.
func matchPat(pat, s string) bool {
	if pat == "" {
		return true
	}
	if strings.HasSuffix(pat, "*") {
		return strings.HasPrefix(s, pat[:len(pat)-1])
	}
	return pat == s
}

// window is a [Start, End) interval of offsets from the plan epoch;
// End <= 0 means forever.
type window struct {
	start, end time.Duration
}

func (w window) contains(off time.Duration) bool {
	return off >= w.start && (w.end <= 0 || off < w.end)
}

// partition is a scheduled one-way cut: calls from→to fail during the
// window.
type partition struct {
	from, to string
	win      window
}

// crashSched is a scheduled endpoint downtime window.
type crashSched struct {
	endpoint string
	win      window
}

// Plan is a deterministic fault schedule. Configure it with the rule
// builders, Bind it to the run's clock, then wrap clients (WrapClient) and
// log writers (WrapWriter) with it. All methods are safe for concurrent use
// once bound.
type Plan struct {
	seed uint64

	mu       sync.Mutex
	clock    vclock.Clock
	epoch    time.Time
	rules    []*rule
	parts    []partition
	sched    []crashSched
	down     map[string]time.Time // endpoint → up-again time; zero = forever
	streams  map[string]uint64    // decision-stream call counters
	fired    map[string]bool      // nth-rules that already fired, per stream
	counters *metrics.Counters
}

// NewPlan returns an empty plan drawing its decision streams from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:     uint64(seed),
		down:     make(map[string]time.Time),
		streams:  make(map[string]uint64),
		fired:    make(map[string]bool),
		counters: metrics.NewCounters(),
	}
}

// Bind attaches the plan to the run's clock and stamps the epoch that
// scripted windows (PartitionOneWay, CrashEndpoint) are measured from.
// core.InProc and core.TCP call it for their plan before the deployment's
// first dial; direct users must call it before wrapping anything.
//
// A Plan drives exactly one run. Rebinding would silently restamp the
// epoch — shifting every scripted window — and, raced from another
// goroutine, would tear the (clock, epoch) pair out from under in-flight
// decisions; both bugs reproduce only under the colliding schedule. Bind
// therefore panics loudly on any rebind attempt once the plan has a
// clock: build a fresh Plan (or PlanSpec.Build) per run instead.
func (p *Plan) Bind(clock vclock.Clock) {
	if clock == nil {
		panic("faults: Bind(nil clock)")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.clock != nil {
		panic("faults: plan already bound — a Plan drives exactly one run; build a fresh Plan per run")
	}
	p.clock = clock
	p.epoch = clock.Now()
}

// Counters returns the injected-event counters.
func (p *Plan) Counters() *metrics.Counters { return p.counters }

// DropCalls drops each matching call with probability prob (the caller
// sees an injected error; the handler never runs).
func (p *Plan) DropCalls(from, to, method string, prob float64) {
	p.addRule(&rule{from: from, to: to, method: method, act: actDrop, prob: prob})
}

// DelayCalls adds d of extra latency to each matching call with
// probability prob, charged to the caller's clock before delivery.
func (p *Plan) DelayCalls(from, to, method string, d time.Duration, prob float64) {
	p.addRule(&rule{from: from, to: to, method: method, act: actDelay, delay: d, prob: prob})
}

// DuplicateCalls re-delivers each successful matching call with
// probability prob: the handler runs twice, modeling at-least-once
// redelivery. The caller sees the first delivery's reply.
func (p *Plan) DuplicateCalls(from, to, method string, prob float64) {
	p.addRule(&rule{from: from, to: to, method: method, act: actDup, prob: prob})
}

// CrashOnCall kills endpoint on the nth matching call of its stream, at
// the given point, for downFor (<= 0: forever). endpoint "" means the
// call's own from side (the usual "the worker itself dies" case). While
// down, every call from or to the endpoint fails with an injected
// dead-call error. With point AfterHandler only calls whose handler
// succeeded count toward (and trigger) the nth — a rule on "space.Take*"
// therefore crashes the caller precisely between its Take and its Write.
// Each stream fires at most once.
func (p *Plan) CrashOnCall(from, to, method string, nth int, point CrashPoint, endpoint string, downFor time.Duration) {
	p.addRule(&rule{from: from, to: to, method: method, act: actCrash,
		point: point, nth: uint64(nth), endpoint: endpoint, downFor: downFor})
}

// CrashProbOnCall is CrashOnCall with a per-call probability instead of a
// call index, and may fire repeatedly — the knob the FaultSweep experiment
// turns.
func (p *Plan) CrashProbOnCall(from, to, method string, prob float64, point CrashPoint, endpoint string, downFor time.Duration) {
	p.addRule(&rule{from: from, to: to, method: method, act: actCrash,
		point: point, prob: prob, endpoint: endpoint, downFor: downFor})
}

func (p *Plan) addRule(r *rule) {
	p.mu.Lock()
	p.rules = append(p.rules, r)
	p.mu.Unlock()
}

// PartitionOneWay cuts calls from→to (patterns) during [start, end)
// offsets from the Bind epoch; end <= 0 means forever. Cut both directions
// with two calls.
func (p *Plan) PartitionOneWay(from, to string, start, end time.Duration) {
	p.mu.Lock()
	p.parts = append(p.parts, partition{from: from, to: to, win: window{start, end}})
	p.mu.Unlock()
}

// CrashEndpoint schedules endpoint (pattern) down during [start, end)
// offsets from the Bind epoch; end <= 0 means forever — the
// "crash-restart the lookup service at t=0..2s" script.
func (p *Plan) CrashEndpoint(endpoint string, start, end time.Duration) {
	p.mu.Lock()
	p.sched = append(p.sched, crashSched{endpoint: endpoint, win: window{start, end}})
	p.mu.Unlock()
}

// Down reports whether endpoint is currently dead (scripted window or
// triggered crash).
func (p *Plan) Down(endpoint string) bool {
	now, off := p.nowOff()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.isDownLocked(endpoint, now, off)
}

// WrapClient wraps inner, a client of either transport binding, so its
// calls route through the plan as calls from endpoint from to endpoint to.
// A call the plan lets through is inner's; a duplicated one runs inner's
// Call twice.
func (p *Plan) WrapClient(from, to string, inner transport.Client) transport.Client {
	return &wrappedClient{p: p, from: from, to: to, inner: inner}
}

type wrappedClient struct {
	p        *Plan
	from, to string
	inner    transport.Client
}

// Call implements transport.Client.
func (w *wrappedClient) Call(method string, arg interface{}) (interface{}, error) {
	return w.p.intercept(w.from, w.to, method, func() (interface{}, error) {
		return w.inner.Call(method, arg)
	})
}

// Close implements transport.Client.
func (w *wrappedClient) Close() error { return w.inner.Close() }

func (p *Plan) nowOff() (time.Time, time.Duration) {
	p.mu.Lock()
	clock, epoch := p.clock, p.epoch
	p.mu.Unlock()
	if clock == nil {
		panic("faults: plan used before Bind")
	}
	now := clock.Now()
	return now, now.Sub(epoch)
}

func (p *Plan) isDownLocked(endpoint string, now time.Time, off time.Duration) bool {
	if endpoint == "" {
		return false
	}
	if until, ok := p.down[endpoint]; ok {
		if until.IsZero() || now.Before(until) {
			return true
		}
		delete(p.down, endpoint) // healed: the endpoint has restarted
	}
	for _, s := range p.sched {
		if matchPat(s.endpoint, endpoint) && s.win.contains(off) {
			return true
		}
	}
	return false
}

// decideLocked advances r's decision stream for this call and reports
// whether the rule fires. For nth-rules the stream fires exactly once, on
// its nth matching call.
func (p *Plan) decideLocked(i int, r *rule, from, to string) bool {
	key := r.streamKey(i, from, to)
	p.streams[key]++
	n := p.streams[key]
	if r.nth > 0 {
		if p.fired[key] || n != r.nth {
			return false
		}
		p.fired[key] = true
		return true
	}
	if r.prob <= 0 {
		return false
	}
	if r.prob >= 1 {
		return true
	}
	return unit(p.seed^hash64(key), n) < r.prob
}

func (p *Plan) killLocked(endpoint string, now time.Time, downFor time.Duration) {
	if downFor > 0 {
		p.down[endpoint] = now.Add(downFor)
	} else {
		p.down[endpoint] = time.Time{}
	}
	p.counters.Inc(EventCrash)
	p.counters.Inc(EventCrash + ":" + endpoint)
}

// intercept applies the plan to one call: the choke point every wrapped
// client funnels through.
func (p *Plan) intercept(from, to, method string, invoke func() (interface{}, error)) (interface{}, error) {
	now, off := p.nowOff()

	p.mu.Lock()
	if p.isDownLocked(from, now, off) {
		p.mu.Unlock()
		p.counters.Inc(EventDeadCall)
		return nil, &Error{Kind: "dead-call", Endpoint: from, Method: method}
	}
	if p.isDownLocked(to, now, off) {
		p.mu.Unlock()
		p.counters.Inc(EventDeadCall)
		return nil, &Error{Kind: "dead-call", Endpoint: to, Method: method}
	}
	for _, pt := range p.parts {
		if matchPat(pt.from, from) && matchPat(pt.to, to) && pt.win.contains(off) {
			p.mu.Unlock()
			p.counters.Inc(EventPartitioned)
			return nil, &Error{Kind: "partitioned", Endpoint: to, Method: method}
		}
	}
	// Pre-delivery rules: the first firing one applies. After-crashes are
	// held back until the handler outcome is known.
	var delay time.Duration
	dup := false
	var after []int // indices of matching AfterHandler crash rules
	fired := false
	for i, r := range p.rules {
		if !r.matches(from, to, method) {
			continue
		}
		if r.act == actCrash && r.point == AfterHandler {
			after = append(after, i)
			continue
		}
		if fired || !p.decideLocked(i, r, from, to) {
			continue
		}
		switch r.act {
		case actDrop:
			p.mu.Unlock()
			p.counters.Inc(EventDrop)
			return nil, &Error{Kind: "drop", Method: method}
		case actDelay:
			delay = r.delay
		case actDup:
			dup = true
		case actCrash: // BeforeHandler
			target := r.crashTarget(from, to)
			p.killLocked(target, now, r.downFor)
			p.mu.Unlock()
			return nil, &Error{Kind: "crash", Endpoint: target, Method: method}
		}
		fired = true
	}
	p.mu.Unlock()

	if delay > 0 {
		p.counters.Inc(EventDelay)
		p.boundClock().Sleep(delay)
	}

	res, err := invoke()
	if err != nil {
		return res, err
	}
	if dup {
		p.counters.Inc(EventDuplicate)
		invoke() //nolint:errcheck // redelivery: the duplicate's reply is discarded
	}

	// After-crashes: only successful deliveries count toward the stream.
	if len(after) > 0 {
		now = p.clockNow()
		p.mu.Lock()
		for _, i := range after {
			r := p.rules[i]
			if !p.decideLocked(i, r, from, to) {
				continue
			}
			target := r.crashTarget(from, to)
			p.killLocked(target, now, r.downFor)
			p.mu.Unlock()
			return nil, &Error{Kind: "crash", Endpoint: target, Method: method}
		}
		p.mu.Unlock()
	}
	return res, nil
}

func (p *Plan) boundClock() vclock.Clock {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.clock == nil {
		panic("faults: plan used before Bind")
	}
	return p.clock
}

func (p *Plan) clockNow() time.Time {
	return p.boundClock().Now()
}

// --- deterministic decision streams ---

// hash64 is FNV-1a with a splitmix-style finalizer (the same construction
// the shard ring uses) over s.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var x uint64 = offset64
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime64
	}
	return mix(x)
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// unit maps (stream, n) to a uniform value in [0, 1).
func unit(stream, n uint64) float64 {
	return float64(mix(stream+n*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
}
