package obs

import (
	"gospaces/internal/metrics"
)

// Obs bundles one deployment's observability surfaces: a Tracer for span
// trees, a metrics.Registry for histograms and gauges, and a Counters set
// for event counts. Components receive a *Obs and treat nil as "off";
// the accessor methods below are nil-safe so call sites stay flat.
type Obs struct {
	Tracer   *Tracer
	Registry *metrics.Registry
	Counters *metrics.Counters
	// Flight is the control-plane flight recorder: bounded per-node rings
	// of causally-stamped events, served at /debug/flight.
	Flight *FlightRecorder

	// health, when set via SetHealth, backs the /healthz endpoint
	// (guarded by the package healthMu — Obs predates having any mutable
	// state and its fields are otherwise written once before sharing).
	health func() Health
}

// New returns a fully-enabled Obs whose tracer IDs are seeded for
// reproducible traces.
func New(seed int64) *Obs {
	o := &Obs{
		Tracer:   NewTracer(seed),
		Registry: metrics.NewRegistry(),
		Counters: metrics.NewCounters(),
		Flight:   NewFlightRecorder(),
	}
	// The recorder's own vitals are ordinary gauges, so every exporter
	// (and scripts/obs_smoke.sh) sees flight-ring health beside the data
	// it guards.
	fl := o.Flight
	o.Registry.RegisterGauge(metrics.GaugeFlightDepth, func() int64 { return int64(fl.Depth()) })
	o.Registry.RegisterGauge(metrics.GaugeFlightDropped, func() int64 { return int64(fl.Dropped()) })
	o.Registry.RegisterGauge(metrics.GaugeFlightClk, func() int64 { return int64(fl.Clk()) })
	return o
}

// T returns the tracer (nil when o is nil).
func (o *Obs) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Reg returns the registry (nil when o is nil).
func (o *Obs) Reg() *metrics.Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Hist returns the named histogram from the registry (nil when disabled;
// a nil histogram swallows Record calls).
func (o *Obs) Hist(name string) *metrics.Histogram {
	if o == nil {
		return nil
	}
	return o.Registry.Histogram(name)
}

// Ctr returns the counter set (nil when o is nil; consumers such as
// wal.Options treat a nil Counters as "don't count").
func (o *Obs) Ctr() *metrics.Counters {
	if o == nil {
		return nil
	}
	return o.Counters
}

// Fl returns the flight recorder (nil when o is nil; a nil recorder
// swallows Record calls).
func (o *Obs) Fl() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}
