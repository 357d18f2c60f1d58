package e2e

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"
)

// runObserved runs the chaos-sized montecarlo job on a 2-shard framework
// with the observability layer on and every span retained.
func runObserved(t *testing.T, o *obs.Obs, plan *faults.Plan, workers int, cfg core.Config) (core.Result, *montecarlo.Job) {
	t.Helper()
	o.Tracer.KeepAll()
	cfg.Obs = o
	return runChaos(t, plan, workers, cfg)
}

// spansByName buckets one trace's spans by stage name.
func spansByName(spans []obs.Span) map[string][]obs.Span {
	out := make(map[string][]obs.Span)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestObsCleanRunSpanTree: on a fault-free run every task must produce
// exactly one connected four-span trace — plan (root, master), take and
// execute (worker), aggregate (master) — and nothing else.
func TestObsCleanRunSpanTree(t *testing.T) {
	o := obs.New(1)
	res, _ := runObserved(t, o, nil, 3, core.Config{
		Spec: shardhost.Spec{
			Shards: 2,
		},
		ResultTimeout: 5 * time.Minute,
	})

	spans := o.Tracer.Spans()
	tasks := res.Metrics.Tasks
	if want := tasks * 4; len(spans) != want {
		t.Fatalf("recorded %d spans, want %d (%d tasks x 4 stages)", len(spans), want, tasks)
	}
	if orphans := obs.Orphans(spans); len(orphans) != 0 {
		t.Fatalf("%d orphaned spans: %+v", len(orphans), orphans)
	}
	traces := obs.Traces(spans)
	if len(traces) != tasks {
		t.Fatalf("%d traces, want %d (one per task)", len(traces), tasks)
	}
	for id, tr := range traces {
		by := spansByName(tr)
		for _, stage := range []string{"plan", "take", "execute", "aggregate"} {
			if len(by[stage]) != 1 {
				t.Fatalf("trace %x has %d %q spans, want 1", id, len(by[stage]), stage)
			}
		}
		plan, agg := by["plan"][0], by["aggregate"][0]
		if plan.Parent != 0 {
			t.Fatalf("trace %x: plan span has parent %x, want root", id, plan.Parent)
		}
		if agg.Parent != by["execute"][0].ID {
			t.Fatalf("trace %x: aggregate parented to %x, want the execute span %x",
				id, agg.Parent, by["execute"][0].ID)
		}
		for _, stage := range []string{"take", "execute"} {
			if s := by[stage][0]; s.Parent != plan.ID {
				t.Fatalf("trace %x: %s parented to %x, want the plan span %x", id, stage, s.Parent, plan.ID)
			}
		}
	}
}

// TestChaosWorkerCrashMidTaskKeepsTraceConnected: each worker executes a
// task and is then killed as it writes the result, so the work is lost
// and the task's transaction expires. The trace context rides inside the
// task entry, so the failed attempt's take and execute spans AND the
// retry's spans all land in the original task's trace — one connected
// tree per task, zero orphans, with the lost attempts visible as extra
// take/execute pairs.
func TestChaosWorkerCrashMidTaskKeepsTraceConnected(t *testing.T) {
	o := obs.New(1)
	plan := faults.NewPlan(chaosSeed(t, 42))
	// BeforeHandler on the result Write: the worker has already taken and
	// executed the task (both spans recorded) but the result never lands.
	plan.CrashOnCall("node/*", "", "space.Write*", 1, faults.BeforeHandler, "", 30*time.Second)

	const workers = 4
	res, job := runObserved(t, o, plan, workers, core.Config{
		Spec: shardhost.Spec{
			Shards: 2,
			TxnTTL: 8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	})
	crashes := int(res.FaultEvents[faults.EventCrash])
	if crashes != workers {
		t.Fatalf("crash events = %d, want %d", crashes, workers)
	}
	if price, err := job.Answer(); err != nil || price.Sims != chaosJobConfig().TotalSims {
		t.Fatalf("sims %d err %v, want %d", price.Sims, err, chaosJobConfig().TotalSims)
	}

	spans := o.Tracer.Spans()
	tasks := res.Metrics.Tasks
	if orphans := obs.Orphans(spans); len(orphans) != 0 {
		t.Fatalf("%d orphaned spans after crashes: %+v", len(orphans), orphans)
	}
	traces := obs.Traces(spans)
	if len(traces) != tasks {
		t.Fatalf("%d traces, want %d: retries must rejoin the original task's trace", len(traces), tasks)
	}
	retried, extraExecutes := 0, 0
	for id, tr := range traces {
		by := spansByName(tr)
		if len(by["plan"]) != 1 || len(by["aggregate"]) != 1 {
			t.Fatalf("trace %x: %d plan / %d aggregate spans, want exactly 1 each",
				id, len(by["plan"]), len(by["aggregate"]))
		}
		if len(by["take"]) == 0 || len(by["execute"]) == 0 {
			t.Fatalf("trace %x: missing take/execute spans", id)
		}
		if len(by["take"]) != len(by["execute"]) {
			t.Fatalf("trace %x: %d take spans but %d execute spans — every recorded take ran",
				id, len(by["take"]), len(by["execute"]))
		}
		if n := len(by["execute"]); n > 1 {
			retried++
			extraExecutes += n - 1
		}
	}
	if retried == 0 {
		t.Fatal("no trace shows a retried execution despite four crashed result writes")
	}
	// Every crash destroyed exactly one executed-but-unwritten result, so
	// the lost attempts across all traces must equal the crash count.
	if extraExecutes != crashes {
		t.Fatalf("traces show %d lost attempts, fault layer reports %d crashes", extraExecutes, crashes)
	}
}

// TestObsMetricsEndpointAfterRun: the HTTP surface over a finished run
// serves at least the eight core histograms in Prometheus text format,
// and the tail latencies it reports are sane (positive, and bounded by
// the run's parallel time).
func TestObsMetricsEndpointAfterRun(t *testing.T) {
	o := obs.New(1)
	res, _ := runObserved(t, o, nil, 3, core.Config{
		Spec: shardhost.Spec{
			Shards: 2,
		},
		ResultTimeout: 5 * time.Minute,
	})

	srv := httptest.NewServer(obs.Handler(o))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	body := string(raw)

	hists := strings.Count(body, "_seconds histogram")
	if hists < 8 {
		t.Fatalf("/metrics exposes %d histograms, want >= 8:\n%s", hists, body)
	}
	// Stages with modeled CPU cost must show positive tails; pure
	// transport stages may legitimately serve in zero virtual time.
	charged := map[string]bool{
		metrics.HistMasterPlan:      true,
		metrics.HistMasterAggregate: true,
		metrics.HistWorkerTask:      true,
	}
	for _, name := range []string{
		metrics.HistMasterPlan, metrics.HistMasterAggregate, metrics.HistMasterTakeResult,
		metrics.HistWorkerTask, metrics.HistShardServe(0), metrics.HistShardServe(1),
		metrics.HistSpacePrefix + "write", metrics.HistSpacePrefix + "take",
	} {
		h := o.Registry.Histogram(name)
		if h.Count() == 0 {
			t.Fatalf("histogram %q recorded nothing", name)
		}
		p99 := h.Quantile(0.99)
		if p99 < 0 || p99 > 2*res.Metrics.ParallelTime {
			t.Fatalf("histogram %q p99 = %v, not in [0, 2x parallel time %v]",
				name, p99, res.Metrics.ParallelTime)
		}
		if charged[name] && p99 == 0 {
			t.Fatalf("histogram %q p99 = 0 despite modeled per-item cost", name)
		}
	}
	if !strings.Contains(body, "gospaces_master_tasks_planned") {
		t.Fatalf("/metrics lacks the framework gauges:\n%s", body)
	}
}

// TestObsSNMPMatchesMetrics: the framework MIB served by the master's
// agent must answer GETs with exactly the values the registry (and thus
// /metrics) reports — one source of truth across both surfaces.
func TestObsSNMPMatchesMetrics(t *testing.T) {
	o := obs.New(1)
	clk := vclock.NewVirtual(chaosEpoch)
	fw := newFramework(t, clk, core.InProc(nil, nil), core.Config{
		Workers: cluster.Uniform(3, 1.0),
		Spec: shardhost.Spec{
			Shards: 2,
			Obs:    o,
		},
		ResultTimeout: 5 * time.Minute,
	})
	if fw.MIB == nil {
		t.Fatal("framework MIB not built despite Config.Obs")
	}
	job := montecarlo.NewJob(chaosJobConfig())

	type snapshot struct {
		planned, collected, pending, inflight, shard0, shard1 int64
	}
	var res core.Result
	var got snapshot
	var runErr error
	clk.Run(func() {
		res, runErr = fw.Run(job, nil)
		if runErr != nil {
			return
		}
		// Probe over the simulated network, exactly as a management
		// station would: SNMP GETs against the master's bound agent.
		c, err := fw.Dial(ring0(fw), ring0(fw))
		if err != nil {
			t.Error(err)
			return
		}
		mgr := snmp.NewManager(workerhost.Community, &snmp.RPCExchanger{C: c})
		get := func(oid snmp.OID) int64 {
			v, err := mgr.GetInt(oid)
			if err != nil {
				t.Errorf("SNMP GET %v: %v", oid, err)
			}
			return v
		}
		got = snapshot{
			planned:   get(snmp.OIDFrameworkTasksPlanned),
			collected: get(snmp.OIDFrameworkResultsCollected),
			pending:   get(snmp.OIDFrameworkTasksPending),
			inflight:  get(snmp.OIDFrameworkTasksInFlight),
			shard0:    get(snmp.OIDFrameworkShardOps(0)),
			shard1:    get(snmp.OIDFrameworkShardOps(1)),
		}
	})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}

	want := snapshot{
		planned:   int64(res.Metrics.Tasks),
		collected: int64(res.Metrics.Tasks),
		pending:   0,
		inflight:  0,
		shard0:    int64(o.Registry.Histogram(metrics.HistShardServe(0)).Count()),
		shard1:    int64(o.Registry.Histogram(metrics.HistShardServe(1)).Count()),
	}
	if got != want {
		t.Fatalf("SNMP snapshot %+v, want %+v", got, want)
	}
	// And the same registry gauges back the /metrics page.
	for name, wantV := range map[string]int64{
		metrics.GaugeTasksPlanned:     want.planned,
		metrics.GaugeResultsCollected: want.collected,
	} {
		if v, ok := o.Registry.Gauge(name); !ok || v != wantV {
			t.Fatalf("registry gauge %q = %d (ok=%v), want %d", name, v, ok, wantV)
		}
	}
}
