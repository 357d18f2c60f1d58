package space

import (
	"sync"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// AdmissionConfig tunes a Service's server-side overload protection. An
// unconfigured Service admits everything and only unwraps a deadline the
// call carries.
type AdmissionConfig struct {
	// Clock evaluates deadlines and brownout windows. Required for any
	// check to run.
	Clock vclock.Clock
	// MaxInflight bounds the ops between admission and their handler's
	// return — the pending-op queue, gate wait included; a replicated
	// shard's standby confirm runs outside admission, after the slot is
	// freed (DESIGN §12). 0 = DefaultMaxInflight.
	MaxInflight int
	// Gate, when set, charges the modeled per-op CPU inside admission so
	// a queued op whose service slot would end past its propagated
	// deadline is dropped instead of executed into the void.
	Gate *transport.ServiceGate
	// Counters receives admit:*/shed:* increments (nil-safe).
	Counters *metrics.Counters
	// FlightSink receives brownout level transitions for the flight
	// recorder (nil = none).
	FlightSink func(detail string)
}

// DefaultMaxInflight is a configured controller's inflight bound when its
// AdmissionConfig names none.
const DefaultMaxInflight = 1024

// Brownout: when inflight utilization stays at or above brownoutEnter for
// brownoutAfter the controller enters level 1 and sheds PriLow ops; after
// another brownoutAfter of sustained saturation, level 2 sheds PriNormal
// too. Utilization at or below brownoutExit leaves brownout.
const (
	brownoutEnter = 0.9
	brownoutExit  = 0.5
	brownoutAfter = 250 * time.Millisecond
)

// Admission is a Service's admission controller: the expired-deadline
// check, the inflight bound, the brownout shedder and the deadline-aware
// gate, applied in that order before any handler runs. Every Service has
// one; Configure arms it.
type Admission struct {
	mu  sync.Mutex
	cfg AdmissionConfig

	inflight int
	level    int       // brownout level: 0 none, 1 shed PriLow, 2 shed PriNormal too
	satSince time.Time // start of the current sustained-saturation window

	admitted uint64
	rejected uint64
	shed     uint64
	expired  uint64
}

// AdmissionVitals is the /healthz snapshot of an admission controller.
type AdmissionVitals struct {
	Inflight        int    `json:"inflight"`
	MaxInflight     int    `json:"max_inflight"`
	BrownoutLevel   int    `json:"brownout_level"`
	Admitted        uint64 `json:"admitted"`
	Rejected        uint64 `json:"rejected"`
	Shed            uint64 `json:"shed"`
	DeadlineExpired uint64 `json:"deadline_expired"`
}

// Configure arms the controller. Call once at service assembly, before
// traffic; reconfiguring a live controller is safe but resets brownout.
func (a *Admission) Configure(cfg AdmissionConfig) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	a.mu.Lock()
	a.cfg = cfg
	a.level = 0
	a.satSince = time.Time{}
	a.mu.Unlock()
}

// Vitals snapshots the controller for /healthz.
func (a *Admission) Vitals() AdmissionVitals {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionVitals{
		Inflight:        a.inflight,
		MaxInflight:     a.cfg.MaxInflight,
		BrownoutLevel:   a.level,
		Admitted:        a.admitted,
		Rejected:        a.rejected,
		Shed:            a.shed,
		DeadlineExpired: a.expired,
	}
}

// admit runs every pre-execution check for one op and, on success, pays
// the gate. It reports whether it reserved an inflight slot, which the
// caller frees with release once the handler finishes.
func (a *Admission) admit(deadline time.Time, pri int) (bool, error) {
	a.mu.Lock()
	cfg := a.cfg
	if cfg.Clock == nil {
		a.mu.Unlock()
		return false, nil
	}
	now := cfg.Clock.Now()
	// Expired deadline: the client has already given up on this op.
	if !deadline.IsZero() && now.After(deadline) {
		a.expired++
		a.mu.Unlock()
		inc(cfg.Counters, metrics.CounterAdmitExpired)
		return false, tuplespace.ErrDeadlineExpired
	}
	// Hard pending-op bound.
	if a.inflight >= cfg.MaxInflight {
		a.rejected++
		a.mu.Unlock()
		inc(cfg.Counters, metrics.CounterAdmitRejected)
		return false, tuplespace.ErrOverloaded
	}
	// Brownout: sustained saturation sheds the lowest classes first.
	transition := a.brownoutLocked(cfg.MaxInflight, now)
	if a.level >= 1 && pri <= transport.PriLow || a.level >= 2 && pri <= transport.PriNormal {
		a.shed++
		key := metrics.CounterShedLow
		if pri > transport.PriLow {
			key = metrics.CounterShedNormal
		}
		a.mu.Unlock()
		if transition != "" && cfg.FlightSink != nil {
			cfg.FlightSink(transition)
		}
		inc(cfg.Counters, key)
		return false, tuplespace.ErrOverloaded
	}
	a.inflight++
	a.admitted++
	a.mu.Unlock()
	if transition != "" && cfg.FlightSink != nil {
		cfg.FlightSink(transition)
	}
	// The gate sleeps through queue wait + service time; an op whose slot
	// would complete after the client's deadline is dropped unexecuted.
	if !cfg.Gate.AdmitBy(deadline) {
		a.mu.Lock()
		a.inflight--
		a.expired++
		a.mu.Unlock()
		inc(cfg.Counters, metrics.CounterAdmitExpired)
		return false, tuplespace.ErrDeadlineExpired
	}
	return true, nil
}

// release frees the inflight slot a successful admit reserved.
func (a *Admission) release() {
	a.mu.Lock()
	a.inflight--
	a.mu.Unlock()
}

// inc is a nil-safe counter increment.
func inc(c *metrics.Counters, key string) {
	if c != nil {
		c.Inc(key)
	}
}

// brownoutLocked advances the brownout state machine and returns a
// non-empty transition description when the level changed.
func (a *Admission) brownoutLocked(maxInflight int, now time.Time) string {
	util := float64(a.inflight) / float64(maxInflight)
	switch {
	case util >= brownoutEnter:
		if a.satSince.IsZero() {
			a.satSince = now
		}
		sustained := now.Sub(a.satSince)
		want := a.level + 1
		if want <= 2 && sustained >= time.Duration(want)*brownoutAfter {
			a.level = want
			return brownoutDetail(a.level)
		}
	case util <= brownoutExit:
		a.satSince = time.Time{}
		if a.level != 0 {
			a.level = 0
			return brownoutDetail(0)
		}
	}
	return ""
}

func brownoutDetail(level int) string {
	switch level {
	case 0:
		return "exit"
	case 1:
		return "level 1: shedding diagnostics"
	default:
		return "level 2: shedding reads"
	}
}

// wrap is the admission middleware a Service installs around kind k's
// handler at registration: unwrap a deadline the call carries, run the
// checks with k's brownout class, clamp a blocking lookup's park to the
// deadline, then run the handler. The class is the kind's, never the
// caller's: the server knows which op it is running.
func (a *Admission) wrap(k Kind, next transport.Handler) transport.Handler {
	pri := k.Priority()
	return func(arg interface{}) (interface{}, error) {
		inner, deadline, _ := transport.Unframe(arg)
		held, err := a.admit(deadline, pri)
		if err != nil {
			return nil, err
		}
		if held {
			defer a.release()
		}
		if !deadline.IsZero() {
			a.clampDeadline(inner, deadline)
		}
		return next(inner)
	}
}

// clampDeadline bounds a blocking lookup's server-side park at the
// client's propagated deadline: once the client has abandoned the call,
// the waiter slot frees instead of leaking until the semantic timeout.
// The argument is the handler's to change: it was lent for this call.
func (a *Admission) clampDeadline(inner interface{}, deadline time.Time) {
	a.mu.Lock()
	clock := a.cfg.Clock
	a.mu.Unlock()
	la, ok := inner.(*lookupArgs)
	if clock == nil || !ok {
		return
	}
	rem := deadline.Sub(clock.Now())
	if rem <= 0 {
		rem = time.Nanosecond
	}
	if la.Timeout <= 0 || la.Timeout > rem {
		la.Timeout = rem
	}
}

// Gated charges gate for every operation of an in-process handle on l.
// Remote callers pay a node's gate inside its admission controller; the
// master operates on its hosted shards directly, and without this its own
// writes and takes would bypass the modeled server CPU — the single-server
// saturation knee would vanish from the measurements.
func Gated(l *Local, gate *transport.ServiceGate) Space {
	return Intercept(l, func(op Op, next Doer) (Result, error) {
		gate.AdmitBy(time.Time{})
		return next.Do(op)
	})
}
