package scenario

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/raytrace"
	"gospaces/internal/core"
	"gospaces/internal/e2e/harness"
	"gospaces/internal/obs"
	"gospaces/internal/shardhost"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// EventOutcome records what one planned event actually did. Skipped
// events (a merge with no split-born shard to merge, a rejoin with no
// promotion to rejoin behind) are not failures: the shrinker produces
// such manifests routinely, and a skip is deterministic given the seed.
type EventOutcome struct {
	Event   Event  `json:"event"`
	Skipped bool   `json:"skipped,omitempty"`
	Note    string `json:"note,omitempty"`
}

// Report is one manifest's verdict: the empty-Violations case is a pass.
type Report struct {
	Manifest   Manifest       `json:"manifest"`
	Violations []string       `json:"violations,omitempty"`
	Events     []EventOutcome `json:"events,omitempty"`
	// FaultEvents is the injected-fault history — the replay fingerprint
	// two same-seed runs must agree on.
	FaultEvents map[string]uint64 `json:"fault_events,omitempty"`
	// VirtualElapsed is the run's span on the virtual clock.
	VirtualElapsed time.Duration `json:"virtual_elapsed"`
	// Timeline is the run's merged causal flight-recorder timeline — the
	// forensic record a failing seed's artifact carries so the control-
	// plane history (promotions, retargets, reshard phases, topology
	// adoptions) can be read without re-running the manifest.
	Timeline []obs.FlightEvent `json:"timeline,omitempty"`
	// Result is the full framework result for post-hoc inspection.
	Result core.Result `json:"-"`
}

// Failed reports whether any invariant was violated.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// Run executes the manifest in-process under a fresh virtual clock and
// checks every invariant. It never returns an error: anything that goes
// wrong — including infrastructure failures — is a violation in the
// report, so callers treat pass/fail uniformly and the shrinker can
// re-run candidates blindly.
func Run(m Manifest) Report {
	rep := Report{Manifest: m}
	fail := func(format string, args ...interface{}) Report {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		return rep
	}
	if err := m.Validate(); err != nil {
		return fail("invalid manifest: %v", err)
	}
	plan, err := m.Faults.Build()
	if err != nil {
		return fail("fault plan: %v", err)
	}

	app, err := buildApp(m.App)
	if err != nil {
		return fail("%v", err)
	}

	dataDir := ""
	fsync := wal.FsyncAlways
	if m.Durable {
		if dataDir, err = os.MkdirTemp("", "scenario"); err != nil {
			return fail("data dir: %v", err)
		}
		defer os.RemoveAll(dataDir)
		pol := m.Fsync
		if pol == "" {
			pol = "always"
		}
		if fsync, err = wal.ParseFsyncPolicy(pol); err != nil {
			return fail("fsync: %v", err)
		}
	}

	ttl := m.TxnTTL
	if ttl == 0 {
		ttl = 8 * time.Second
	}
	// The paper's LAN, with each shard server's modeled per-op CPU.
	model := transport.LAN2001()
	model.SpaceOp = m.OpCost
	st := &runState{m: m, kills: make([]int, m.Shards)}
	// The flight recorder is seeded like everything else: two same-seed
	// runs produce byte-identical timelines (modulo wall stamps, which
	// come off the virtual clock and so are identical too).
	o := obs.New(m.Seed)
	out, runErr := harness.Run(harness.RunSpec{
		Workers: m.Workers,
		Model:   &model,
		Plan:    plan,
		Config: core.Config{
			Spec: shardhost.Spec{
				Shards:      m.Shards,
				Replicas:    m.Replicas,
				Elastic:     m.Elastic,
				DataDir:     dataDir,
				FsyncPolicy: fsync,
				TxnTTL:      ttl,
				MaxInflight: m.MaxInflight,
				Obs:         o,
			},
			OpTimeout:     m.OpTimeout,
			ResultTimeout: 10 * time.Minute,
		},
		Job:    app.job,
		Script: st.script,
	})
	rep.Events = st.outcomes
	rep.Result = out.Result
	rep.FaultEvents = out.Result.FaultEvents
	rep.VirtualElapsed = out.Clock.Now().Sub(harness.Epoch)
	if runErr != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("run failed: %v", runErr))
	}
	rep.Violations = append(rep.Violations, checkInvariants(m, out, st, app)...)

	// Capture the merged causal timeline before anything closes the
	// framework, then hold it to the vclock consistency rules: per-node
	// stamps monotone, per-shard epochs non-regressing in causal order.
	rep.Timeline = o.Fl().Timeline()
	if err := obs.CheckTimeline(rep.Timeline); err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("flight timeline: %v", err))
	}

	// The WAL-recovery check closes the framework and reopens each
	// shard's log; everything else must be read before it runs.
	if m.Durable && m.Replicas == 0 && !m.Elastic && runErr == nil {
		rep.Violations = append(rep.Violations, checkWALEquivalence(m, out, dataDir, fsync)...)
	} else {
		out.Framework.Close()
	}
	return rep
}

// appRun couples a core.Job with its app-specific exactness check.
type appRun struct {
	job core.Job
	// wantTasks is the planned task count.
	wantTasks int
	mc        *montecarlo.Job
	rt        *raytrace.Job
}

func buildApp(spec AppSpec) (appRun, error) {
	switch spec.Name {
	case AppMonteCarlo:
		jc := montecarlo.DefaultJobConfig()
		jc.SimsPerTask = 50
		jc.TotalSims = spec.Tasks * jc.SimsPerTask
		jc.WorkPerSubtask = spec.Work
		jc.PlanningCostPerTask = 10 * time.Millisecond
		jc.AggregationCostPerResult = 5 * time.Millisecond
		jc.ShardSpread = spec.Spread
		job := montecarlo.NewJob(jc)
		// Plan emits a high and a low task per 2×SimsPerTask block.
		blocks := (jc.TotalSims + 2*jc.SimsPerTask - 1) / (2 * jc.SimsPerTask)
		return appRun{job: job, mc: job, wantTasks: 2 * blocks}, nil
	case AppRayTrace:
		jc := raytrace.DefaultJobConfig()
		jc.StripWidth = (jc.Width + spec.Tasks - 1) / spec.Tasks
		jc.WorkPerPixel = spec.Work
		jc.PlanningCostPerTask = 10 * time.Millisecond
		jc.AggregationCostPerResult = 5 * time.Millisecond
		job := raytrace.NewJob(jc)
		strips := (jc.Width + jc.StripWidth - 1) / jc.StripWidth
		return appRun{job: job, rt: job, wantTasks: strips}, nil
	}
	return appRun{}, fmt.Errorf("unknown app %q", spec.Name)
}

// epochSample is one observation of every monotone counter, taken at
// event boundaries.
type epochSample struct {
	topo   uint64
	shards []uint64
}

// runState is the script goroutine's bookkeeping: which events actually
// executed (the invariants' expected values) and the epoch samples the
// monotonicity check compares.
type runState struct {
	m        Manifest
	kills    []int // executed kills per base shard
	splits   int
	merges   int
	outcomes []EventOutcome
	samples  []epochSample
	// eventFailures are hard event errors — a restart that could not
	// recover, a split that failed outright. They become violations.
	eventFailures []string
	forged        int
}

func (st *runState) script(f *core.Framework) {
	start := f.Clock.Now()
	st.sample(f)
	for _, ev := range st.m.Events {
		if wait := ev.At - f.Clock.Now().Sub(start); wait > 0 {
			f.Clock.Sleep(wait)
		}
		st.apply(f, ev)
		st.sample(f)
	}
}

func (st *runState) sample(f *core.Framework) {
	s := epochSample{topo: f.Host.TopologyEpoch(), shards: make([]uint64, st.m.Shards)}
	for i := range s.shards {
		s.shards[i] = f.Host.Epoch(i)
	}
	st.samples = append(st.samples, s)
}

func (st *runState) apply(f *core.Framework, ev Event) {
	out := EventOutcome{Event: ev}
	skip := func(note string) {
		out.Skipped, out.Note = true, note
	}
	hard := func(err error) {
		out.Note = err.Error()
		st.eventFailures = append(st.eventFailures, fmt.Sprintf("event %s(shard %d) at %s: %v", ev.Kind, ev.Shard, ev.At, err))
	}
	switch ev.Kind {
	case KillPrimary:
		// Never leave two ring positions headless at once: earlier kills
		// must have promoted before the next primary dies (the same
		// discipline the failover e2e scripts keep).
		for i := range st.kills {
			want := uint64(1 + st.kills[i])
			i := i
			st.waitFor(f, 10*time.Second, func() bool { return f.Host.Epoch(i) >= want })
		}
		if err := f.Host.KillPrimary(ev.Shard); err != nil {
			skip(err.Error())
		} else {
			st.kills[ev.Shard]++
		}
	case Rejoin:
		want := uint64(1 + st.kills[ev.Shard])
		if !st.waitFor(f, 15*time.Second, func() bool { return f.Host.Epoch(ev.Shard) >= want }) {
			skip("no promotion to rejoin behind")
		} else if err := f.Host.Rejoin(ev.Shard); err != nil {
			skip(err.Error())
		}
	case RestartShard:
		if _, err := f.Host.Restart(ev.Shard); err != nil {
			hard(err)
		}
	case Split:
		ring, ok := f.Host.RingID(ev.Shard)
		if !ok {
			skip(fmt.Sprintf("no shard %d", ev.Shard))
		} else if _, err := f.Host.Split(ring); err != nil {
			hard(err)
		} else {
			st.splits++
		}
	case Merge:
		rings := f.Host.SplitBorn()
		if len(rings) == 0 {
			skip("no split-born shard to merge")
			break
		}
		sort.Strings(rings)
		if err := f.Host.Merge(rings[0]); err != nil {
			hard(err)
		} else {
			st.merges++
		}
	case CorruptResult:
		// Forge an extra result: the master aggregates it in place of a
		// real one, so the zero-lost/zero-duplicated invariant MUST trip.
		_, err := f.Space.Write(montecarlo.Result{
			Job: montecarlo.JobName, ID: 990000 + st.forged, Kind: "high", Sims: 1, Node: "forged",
		}, nil, tuplespace.Forever)
		if err != nil {
			skip(err.Error())
		} else {
			st.forged++
		}
	case OverloadBurst:
		st.burst(f, ev)
	}
	st.outcomes = append(st.outcomes, out)
}

// burst multiplies the offered load for the event's window: Factor read
// generators per worker hammer the base shards over RPC, so the traffic
// rides through each shard's admission controller exactly like a worker's
// — inflight rises, the gates queue, and with the manifest's knobs armed
// the brownout shedder engages. The generators' errors are discarded:
// shed and rejected ops are exactly what the burst exists to provoke, and
// the invariants only care that the *workers'* results survive the storm.
func (st *runState) burst(f *core.Framework, ev Event) {
	factor, window := ev.Factor, ev.Window
	if factor <= 0 {
		factor = 4
	}
	if window <= 0 {
		window = 2 * time.Second
	}
	tmpl := burstTemplate(st.m)
	end := f.Clock.Now().Add(window)
	g := vclock.NewGroup(f.Clock)
	for k := 0; k < factor*st.m.Workers; k++ {
		from := fmt.Sprintf("burst/%d", k)
		addr := shardAddr(k % st.m.Shards)
		g.Go(func() {
			// A generator dies with the endpoint it targets (a killed
			// primary, a mid-restart shard): errors are part of the storm.
			c, _ := f.Dial(from, addr) // an in-process dial cannot fail
			sp := space.NewProxy(c)
			for f.Clock.Now().Before(end) {
				_, _ = sp.ReadIfExists(tmpl, nil) // PriNormal: shed at level 2
				_, _ = sp.Count(tmpl)             // PriLow: shed at level 1
				f.Clock.Sleep(5 * time.Millisecond)
			}
		})
	}
	g.Wait()
}

// burstTemplate is the unkeyed task template the burst generators scan
// for — unkeyed so every read scatters across the whole ring.
func burstTemplate(m Manifest) tuplespace.Entry {
	if m.App.Name == AppRayTrace {
		return raytrace.Task{}
	}
	return montecarlo.Task{}
}

// waitFor polls cond on the virtual clock, bounded by d.
func (st *runState) waitFor(f *core.Framework, d time.Duration, cond func() bool) bool {
	deadline := f.Clock.Now().Add(d)
	for !cond() {
		if !f.Clock.Now().Before(deadline) {
			return false
		}
		f.Clock.Sleep(200 * time.Millisecond)
	}
	return true
}
