// Package scenario is a property-based test harness for the whole
// framework: it generates random — but valid — cluster deployments with
// timed fault/failover/reshard event plans, runs them in-process on the
// virtual clock through the same assembly path the e2e suites use
// (internal/e2e/harness), and checks the global invariants every prior
// subsystem proved piecemeal: zero lost or duplicated results, epoch
// monotonicity, topology convergence, and WAL-recovery equivalence. A
// failing manifest is minimized by a greedy event-plan shrinker before it
// is reported, and every manifest serializes to JSON so a nightly failure
// replays from its logged seed alone.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"

	"gospaces/internal/faults"
)

// App names accepted by AppSpec.Name.
const (
	AppMonteCarlo = "montecarlo"
	AppRayTrace   = "raytrace"
)

// AppSpec picks the application and sizes its bag of tasks.
type AppSpec struct {
	Name string `json:"name"`
	// Tasks is the planned task count (montecarlo: batches of 50 sims;
	// raytrace: image strips).
	Tasks int `json:"tasks"`
	// Work is the modeled per-unit worker cost: per subtask for
	// montecarlo, per pixel for raytrace. The generator sizes it so the
	// job's execution spans the whole event plan.
	Work time.Duration `json:"work"`
	// Spread scatters montecarlo tasks across shards by per-task keys.
	Spread bool `json:"spread,omitempty"`
}

// Event kinds. CorruptResult is test-only: Generate never emits it; it
// forges an extra result entry mid-run so the checker's
// zero-lost/zero-duplicated invariant MUST trip — the harness's own
// smoke test.
const (
	KillPrimary   = "kill-primary"
	Rejoin        = "rejoin"
	RestartShard  = "restart-shard"
	Split         = "split"
	Merge         = "merge"
	CorruptResult = "corrupt-result"
	// OverloadBurst multiplies the offered load: Factor extra read
	// generators per worker hammer the space for Window. With the
	// manifest's overload knobs set (OpCost, MaxInflight) the burst
	// saturates the shard gates and exercises admission control, brownout
	// shedding and retry budgets while the invariants must still hold —
	// shed ops are the burst's own and the workers', and a worker
	// absorbs a rejection by aborting its transaction and repolling. An
	// optional slow-shard fault rides the fault plan (the generator pairs
	// a delay rule on one shard's address with the burst).
	OverloadBurst = "overload-burst"
)

// Event is one timed control-plane action. Events run sequentially in
// manifest order on the run's script goroutine; At is the virtual-clock
// offset from run start at which the event fires.
type Event struct {
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"`
	// Shard targets kill-primary/rejoin/restart-shard/split by base-shard
	// index. Merge resolves its target at runtime (the first live
	// split-born ring, sorted) because split-born ring IDs exist only
	// once the split has happened. Overload-burst offers load to the
	// whole ring and ignores it.
	Shard int `json:"shard,omitempty"`
	// Factor is overload-burst's load multiplier: Factor extra read
	// generators per worker (0 = 4).
	Factor int `json:"factor,omitempty"`
	// Window is how long an overload-burst sustains (0 = 2s).
	Window time.Duration `json:"window,omitempty"`
}

// Manifest is a complete, replayable deployment + event plan. Everything
// the runner does is derived from it and the virtual clock, so equal
// manifests produce equal runs.
type Manifest struct {
	// Seed identifies the manifest (Generate(seed) reproduces it) and
	// seeds the fault plan's decision streams.
	Seed int64 `json:"seed"`
	// Workers is the cluster size (uniform 1.0-speed nodes).
	Workers int `json:"workers"`
	// Shards is the base shard count.
	Shards int `json:"shards"`
	// Replicas gives every shard a hot standby (0 or 1).
	Replicas int `json:"replicas,omitempty"`
	// Elastic enables online split/merge resharding.
	Elastic bool `json:"elastic,omitempty"`
	// Durable backs every shard with a WAL under a run-local data dir.
	Durable bool `json:"durable,omitempty"`
	// Fsync is the WAL sync policy: "always", "interval" or "never"
	// (durable deployments only; "" = always).
	Fsync string `json:"fsync,omitempty"`
	// TxnTTL leases each worker's per-task transaction (0 = 8s).
	TxnTTL time.Duration `json:"txn_ttl,omitempty"`
	// OpTimeout bounds each space RPC a worker issues (0 = unbounded).
	// Timed-out calls surface space.ErrOpTimeout — the ambiguous "did it
	// execute?" outcome every router resolves by retrying the mutation's
	// token against the shard's memo table.
	OpTimeout time.Duration `json:"op_timeout,omitempty"`
	// OpCost models each shard server's per-op CPU (the network model's
	// SpaceOp): with it set an overload-burst actually saturates the shard
	// gates instead of being absorbed by an infinitely fast server.
	OpCost time.Duration `json:"op_cost,omitempty"`
	// MaxInflight bounds each shard's admitted-but-unfinished ops, which
	// its brownout controller judges saturation against
	// (core.Config.MaxInflight; 0 = space.DefaultMaxInflight).
	MaxInflight int `json:"max_inflight,omitempty"`
	// App is the workload.
	App AppSpec `json:"app"`
	// Faults is the seeded fault schedule put on every client the cluster
	// dials and every log it writes.
	Faults faults.PlanSpec `json:"faults"`
	// Events is the timed control-plane plan.
	Events []Event `json:"events,omitempty"`
}

// Validate rejects manifests the runner cannot execute, with enough
// detail to fix a hand-written one.
func (m Manifest) Validate() error {
	if m.Workers < 1 {
		return fmt.Errorf("scenario: workers = %d, want >= 1", m.Workers)
	}
	if m.Shards < 1 {
		return fmt.Errorf("scenario: shards = %d, want >= 1", m.Shards)
	}
	if m.Replicas < 0 || m.Replicas > 1 {
		return fmt.Errorf("scenario: replicas = %d, want 0 or 1", m.Replicas)
	}
	switch m.App.Name {
	case AppMonteCarlo, AppRayTrace:
	default:
		return fmt.Errorf("scenario: unknown app %q", m.App.Name)
	}
	if m.App.Tasks < 1 {
		return fmt.Errorf("scenario: app tasks = %d, want >= 1", m.App.Tasks)
	}
	if m.Fsync != "" && m.Fsync != "always" && m.Fsync != "interval" && m.Fsync != "never" {
		return fmt.Errorf("scenario: unknown fsync policy %q", m.Fsync)
	}
	if !m.Durable && m.Fsync != "" {
		return fmt.Errorf("scenario: fsync policy set on a non-durable manifest")
	}
	if m.OpTimeout < 0 {
		return fmt.Errorf("scenario: op_timeout = %s, want >= 0", m.OpTimeout)
	}
	if m.OpCost < 0 || m.MaxInflight < 0 {
		return fmt.Errorf("scenario: overload knobs must be >= 0 (op_cost %s, max_inflight %d)",
			m.OpCost, m.MaxInflight)
	}
	last := time.Duration(-1)
	for i, ev := range m.Events {
		if ev.At < last {
			return fmt.Errorf("scenario: event %d (%s) at %s is out of order", i, ev.Kind, ev.At)
		}
		last = ev.At
		switch ev.Kind {
		case KillPrimary, Rejoin:
			if m.Replicas == 0 {
				return fmt.Errorf("scenario: event %d: %s requires replicas", i, ev.Kind)
			}
		case RestartShard:
			if !m.Durable {
				return fmt.Errorf("scenario: event %d: restart-shard requires a durable deployment", i)
			}
			if m.Replicas > 0 {
				return fmt.Errorf("scenario: event %d: restart-shard and replicas are exclusive (failover replaces restarts)", i)
			}
		case Split, Merge:
			if !m.Elastic {
				return fmt.Errorf("scenario: event %d: %s requires an elastic deployment", i, ev.Kind)
			}
		case CorruptResult:
			if m.App.Name != AppMonteCarlo {
				return fmt.Errorf("scenario: event %d: corrupt-result supports only montecarlo", i)
			}
		case OverloadBurst:
			if ev.Factor < 0 || ev.Window < 0 {
				return fmt.Errorf("scenario: event %d: overload-burst factor/window must be >= 0", i)
			}
		default:
			return fmt.Errorf("scenario: event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.Kind != Merge && ev.Kind != OverloadBurst && (ev.Shard < 0 || ev.Shard >= m.Shards) {
			return fmt.Errorf("scenario: event %d (%s) targets shard %d of %d", i, ev.Kind, ev.Shard, m.Shards)
		}
		if ev.Kind != OverloadBurst && (ev.Factor != 0 || ev.Window != 0) {
			return fmt.Errorf("scenario: event %d (%s): factor/window apply only to overload-burst", i, ev.Kind)
		}
	}
	return nil
}

// MarshalIndent renders the manifest as the JSON artifact CI uploads.
func (m Manifest) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// ParseManifest decodes a manifest artifact and validates it.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("scenario: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}
