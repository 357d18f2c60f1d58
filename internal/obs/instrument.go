package obs

import (
	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// InstrumentSpace wraps s with a timing interceptor: every operation's
// latency, as the caller observes it (network, gate queueing and service
// time included), lands in the histogram "<prefix><kind>". Histograms are
// resolved once at wrap time, so the per-op cost is two clock reads and a
// Record. A nil registry returns s unchanged (observability off).
func InstrumentSpace(s space.Space, clk vclock.Clock, reg *metrics.Registry, prefix string) space.Space {
	if reg == nil {
		return s
	}
	var hists [space.NumKinds]*metrics.Histogram
	for k := range hists {
		hists[k] = reg.Histogram(prefix + space.Kind(k).String())
	}
	return space.Intercept(s, func(op space.Op, next space.Doer) (space.Result, error) {
		start := clk.Now()
		res, err := next.Do(op)
		hists[op.Kind].Record(clk.Since(start))
		return res, err
	})
}

// ServerMiddleware times every dispatched RPC method into h — installed
// with srv.WrapPrefix("space.", …) it yields a shard's server-side
// service-time histogram, queueing at the service gate included when it
// wraps outside the gate middleware.
func ServerMiddleware(clk vclock.Clock, h *metrics.Histogram) func(string, transport.Handler) transport.Handler {
	return func(method string, next transport.Handler) transport.Handler {
		return func(arg interface{}) (interface{}, error) {
			start := clk.Now()
			res, err := next(arg)
			h.Record(clk.Since(start))
			return res, err
		}
	}
}
