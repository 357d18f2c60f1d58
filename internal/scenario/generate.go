package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/faults"
)

// Generation bounds. The grammar is deliberately conservative: every
// sampled manifest must PASS its invariants, so it only combines
// machinery along interactions the subsystem suites have proven. The
// grammar widens as coverage does — that is the point of growing it here
// instead of hand-writing one test per shape.
const (
	minWorkers = 3
	maxWorkers = 6
	maxShards  = 3
	// minExec/maxExec bound the job's modeled execution span. Every event
	// fires before maxEventAt, comfortably inside the job.
	minExec    = 14 * time.Second
	maxExec    = 20 * time.Second
	maxEventAt = 9 * time.Second
)

// Generate samples a valid manifest from the weighted grammar. The same
// seed always yields the same manifest, and the manifest reuses the seed
// for its fault plan, so one int64 reproduces an entire run.
func Generate(seed int64) Manifest {
	r := rand.New(rand.NewSource(seed))
	m := Manifest{
		Seed:    seed,
		Workers: minWorkers + r.Intn(maxWorkers-minWorkers+1),
		Shards:  1 + r.Intn(maxShards),
		TxnTTL:  8 * time.Second,
		// Far above the benign delay rules' latency, so only the
		// ambiguous-timeout rule genFaults may add can trip it.
		OpTimeout: 500 * time.Millisecond,
		Faults:    faults.PlanSpec{Seed: seed},
	}

	// Deployment shape. Replication and elasticity stay exclusive in the
	// grammar (their product is proven only for scripted shapes so far);
	// hand-written manifests may combine them.
	switch {
	case r.Float64() < 0.35:
		m.Replicas = 1
	case r.Float64() < 0.5:
		m.Elastic = true
	}
	if r.Float64() < 0.45 {
		m.Durable = true
		m.Fsync = pick(r, []weighted{{"always", 5}, {"interval", 3}, {"never", 2}})
	}
	exec := minExec + time.Duration(r.Int63n(int64(maxExec-minExec)))
	m.App = genApp(r, m, exec)
	m.Events = genEvents(r, m)
	genFaults(r, &m)
	genOverload(r, &m)
	return m
}

type weighted struct {
	val string
	w   int
}

func pick(r *rand.Rand, opts []weighted) string {
	total := 0
	for _, o := range opts {
		total += o.w
	}
	n := r.Intn(total)
	for _, o := range opts {
		if n < o.w {
			return o.val
		}
		n -= o.w
	}
	return opts[len(opts)-1].val
}

// genApp sizes a workload whose modeled execution spans exec on the
// manifest's worker count. Per-task execution is exec×workers/tasks for
// both apps, and a task must finish well inside the 8s transaction lease
// — at TTL/2 or less — or the shard aborts every attempt mid-execution
// and the run livelocks with zero results. The task count is floored
// accordingly.
func genApp(r *rand.Rand, m Manifest, exec time.Duration) AppSpec {
	leaseBudget := 4 * time.Second // TxnTTL/2
	minTasks := int(int64(exec)*int64(m.Workers)/int64(leaseBudget)) + 1
	if r.Float64() < 0.3 {
		// Raytrace: a 600×600 image in Tasks strips; execution is
		// W×H×WorkPerPixel/workers. Strip counts that divide 600 evenly.
		var fits []int
		for _, n := range []int{12, 24, 40, 60} {
			if n >= minTasks {
				fits = append(fits, n)
			}
		}
		return AppSpec{
			Name:  AppRayTrace,
			Tasks: fits[r.Intn(len(fits))],
			Work:  time.Duration(int64(exec) * int64(m.Workers) / (600 * 600)),
		}
	}
	// Montecarlo: Tasks batches of 50 sims (Plan emits a high and a low
	// task per 100-sim block, so keep Tasks even); execution is
	// TotalSims/100 × Work / workers.
	tasks := 16 + 2*r.Intn(9) // 16..32 even
	if tasks < minTasks {
		tasks = minTasks + minTasks%2
	}
	totalSims := tasks * 50
	return AppSpec{
		Name:   AppMonteCarlo,
		Tasks:  tasks,
		Work:   time.Duration(int64(exec) * int64(m.Workers) * 100 / int64(totalSims)),
		Spread: m.Shards > 1,
	}
}

// genEvents plans at most two control-plane actions in two well-separated
// slots — early (1.5–4s) and late (6–9s) — so a kill's promotion always
// settles before the next event and everything lands inside the job.
func genEvents(r *rand.Rand, m Manifest) []Event {
	if r.Float64() < 0.2 {
		return nil // fault-schedule-only run
	}
	early := 1500*time.Millisecond + time.Duration(r.Int63n(int64(2500*time.Millisecond)))
	late := 6*time.Second + time.Duration(r.Int63n(int64(maxEventAt-6*time.Second)))

	switch {
	case m.Replicas == 1:
		k := r.Intn(m.Shards)
		evs := []Event{{At: early, Kind: KillPrimary, Shard: k}}
		switch {
		case r.Float64() < 0.4:
			// Fail back: the dead node rejoins as the promoted primary's
			// standby (the runner waits out the promotion first).
			evs = append(evs, Event{At: late, Kind: Rejoin, Shard: k})
		case m.Shards > 1 && r.Float64() < 0.6:
			evs = append(evs, Event{At: late, Kind: KillPrimary, Shard: (k + 1) % m.Shards})
		}
		return evs
	case m.Elastic:
		s := r.Intn(m.Shards)
		evs := []Event{{At: early, Kind: Split, Shard: s}}
		switch {
		case r.Float64() < 0.4:
			evs = append(evs, Event{At: late, Kind: Merge})
		case r.Float64() < 0.5:
			evs = append(evs, Event{At: late, Kind: Split, Shard: (s + 1) % m.Shards})
		}
		return evs
	case m.Durable:
		s := r.Intn(m.Shards)
		evs := []Event{{At: early, Kind: RestartShard, Shard: s}}
		if r.Float64() < 0.4 {
			evs = append(evs, Event{At: late, Kind: RestartShard, Shard: r.Intn(m.Shards)})
		}
		return evs
	}
	return nil
}

// genFaults adds the network-level schedule: worker mid-task crashes,
// extra latency, duplicated result deliveries, dropped result writes and
// lookup outages — each gated on the deployment shapes where its recovery
// path is defined.
func genFaults(r *rand.Rand, m *Manifest) {
	rules := &m.Faults.Rules
	if r.Float64() < 0.6 {
		// The paper's §3 failure: a worker dies between Take and Write,
		// holding the task under its lease.
		*rules = append(*rules, faults.RuleSpec{
			Kind: faults.RuleCrashOnCall, From: "node/*", Method: "space.Take*",
			Nth: 1 + r.Intn(3), Point: "after",
			DownFor: 10*time.Second + time.Duration(r.Int63n(int64(10*time.Second))),
		})
	}
	if r.Float64() < 0.5 {
		*rules = append(*rules, faults.RuleSpec{
			Kind: faults.RuleDelay, From: "node/*", Method: "space.*",
			Prob:  0.1 + 0.15*r.Float64(),
			Delay: 20*time.Millisecond + time.Duration(r.Int63n(int64(60*time.Millisecond))),
		})
	}
	if r.Float64() < 0.4 {
		// At-least-once redelivery of result writes: the write is tokened
		// under the worker's transaction, so the shard answers the
		// redelivery and stores one copy.
		*rules = append(*rules, faults.RuleSpec{
			Kind: faults.RuleDuplicate, From: "node/*", To: "master*", Method: "space.Write",
			Prob: 0.05 + 0.1*r.Float64(),
		})
	}
	if r.Float64() < 0.7 {
		// Ambiguous op timeouts on a mutation path: the injected delay
		// exceeds OpTimeout, so the caller gives up while the shard still
		// executes the call. The router's tokened retry must collapse
		// against the memo table — exactness holds with zero lost AND
		// zero duplicated results.
		method := pick(r, []weighted{{"space.Write", 4}, {"space.Take*", 3}, {"space.TxnCommit", 2}})
		*rules = append(*rules, faults.RuleSpec{
			Kind: faults.RuleDelay, From: "node/*", To: "master*", Method: method,
			Prob:  0.05 + 0.1*r.Float64(),
			Delay: m.OpTimeout*3/2 + time.Duration(r.Int63n(int64(m.OpTimeout))),
		})
	}
	// Hard drops and lookup outages: a dropped write is retried with its
	// original token, and a worker's discovery retries through the outage.
	if r.Float64() < 0.4 {
		*rules = append(*rules, faults.RuleSpec{
			Kind: faults.RuleDrop, From: "node/*", To: "master*", Method: "space.Write",
			Prob: 0.05 + 0.15*r.Float64(),
		})
	}
	if r.Float64() < 0.3 {
		m.Faults.Crashes = append(m.Faults.Crashes, faults.CrashWindowSpec{
			Endpoint: discovery.WellKnownAddress,
			End:      time.Second + time.Duration(r.Int63n(int64(1500*time.Millisecond))),
		})
	}
}

// genOverload tightens the overload-protection plane on ~30% of manifests
// and fires one mid-run burst against it. The knobs are deliberately
// generous — MaxInflight well above what the workers alone generate — so
// the burst generators absorb the sheds and rejections while the workers'
// high-priority mutations keep flowing; the invariants then prove overload
// protection never loses or duplicates a result. A slow shard sometimes
// rides along (extra latency on one shard's address) so the burst also
// exercises the routers' retry budgets and breakers.
func genOverload(r *rand.Rand, m *Manifest) {
	if r.Float64() >= 0.3 {
		return
	}
	m.OpCost = time.Millisecond + time.Duration(r.Int63n(int64(2*time.Millisecond)))
	// Small enough that a large burst saturates a shard (the generators
	// hold inflight slots through the gate queue), large enough that the
	// workers alone never graze it.
	m.MaxInflight = 8 + r.Intn(17)
	// The burst lands mid-run (4.5–5.5s): after genEvents' early slot and
	// before its late one, so sorting keeps both plans' spacing intact.
	m.Events = append(m.Events, Event{
		At:     4500*time.Millisecond + time.Duration(r.Int63n(int64(time.Second))),
		Kind:   OverloadBurst,
		Factor: 3 + r.Intn(4),
		Window: time.Second + time.Duration(r.Int63n(int64(1500*time.Millisecond))),
	})
	sort.SliceStable(m.Events, func(i, j int) bool { return m.Events[i].At < m.Events[j].At })
	if m.Shards > 1 && m.Replicas == 0 && r.Float64() < 0.5 {
		// Slow shard: extra latency on one non-root shard's address, small
		// enough to stay under any op deadline (no accidental ambiguity).
		m.Faults.Rules = append(m.Faults.Rules, faults.RuleSpec{
			Kind: faults.RuleDelay, From: "node/*", To: shardAddr(1 + r.Intn(m.Shards-1)),
			Method: "space.*",
			Prob:   0.5 + 0.3*r.Float64(),
			Delay:  10*time.Millisecond + time.Duration(r.Int63n(int64(30*time.Millisecond))),
		})
	}
}

// shardAddr is base shard i's simulated-cluster listener address (shard 0
// shares the master's own listener).
func shardAddr(i int) string {
	if i == 0 {
		return "master"
	}
	return fmt.Sprintf("master.shard%d", i)
}
