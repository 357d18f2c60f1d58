package core

import (
	"gospaces/internal/space"
	"gospaces/internal/transport"
)

// gated charges a shard's service gate for the master's direct in-process
// operations. Worker RPCs pay the gate inside the service's admission
// controller; without this interceptor the master's own writes and takes
// would bypass the modeled server CPU and the single-server saturation
// knee would vanish from the measurements.
func gated(l *space.Local, gate *transport.ServiceGate) space.Space {
	return space.Intercept(l, func(op space.Op, next space.Doer) (space.Result, error) {
		gate.Admit()
		return next.Do(op)
	})
}
