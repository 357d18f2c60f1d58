package core

import (
	"bytes"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/pagerank"
	"gospaces/internal/apps/raytrace"
	"gospaces/internal/cluster"
	"gospaces/internal/rulebase"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"
)

var epoch = time.Date(2001, 10, 8, 9, 0, 0, 0, time.UTC)

// mustNew is New failing tb on an assembly error.
func mustNew(tb testing.TB, clk vclock.Clock, net Net, cfg Config) *Framework {
	tb.Helper()
	f, err := New(clk, net, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func smallMCConfig() montecarlo.JobConfig {
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 1200
	cfg.SimsPerTask = 100 // → 12 subtasks
	cfg.WorkPerSubtask = 200 * time.Millisecond
	cfg.PlanningCostPerTask = 30 * time.Millisecond
	return cfg
}

func TestMonteCarloEndToEnd(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.Uniform(4, 1.0)})
	job := montecarlo.NewJob(smallMCConfig())
	var res Result
	var err error
	clk.Run(func() {
		res, err = fw.Run(job, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Tasks != 12 {
		t.Fatalf("tasks = %d, want 12", res.Metrics.Tasks)
	}
	if job.ResultCount() != 12 {
		t.Fatalf("aggregated %d results", job.ResultCount())
	}
	price, err := job.Answer()
	if err != nil {
		t.Fatal(err)
	}
	bs := montecarlo.BlackScholes(montecarlo.DefaultParams())
	if price.High+6*price.HighErr < bs || price.Low-6*price.LowErr > bs+2 {
		t.Fatalf("price bracket [%v,%v] inconsistent with European %v", price.Low, price.High, bs)
	}
	// Metrics sanity.
	m := res.Metrics
	if m.TaskPlanningTime <= 0 || m.TaskAggregationTime <= 0 || m.ParallelTime <= 0 {
		t.Fatalf("degenerate metrics %+v", m)
	}
	if m.ParallelTime < m.TaskPlanningTime || res.MaxWorkerTime <= 0 {
		t.Fatalf("inconsistent metrics %+v maxWorker=%v", m, res.MaxWorkerTime)
	}
	// Every node contributed under a balanced load.
	total := 0
	for node, st := range res.WorkerStats {
		if st.TaskFailures != 0 {
			t.Fatalf("%s failures: %+v", node, st)
		}
		total += st.TasksDone
	}
	if total != 12 {
		t.Fatalf("workers completed %d tasks", total)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (Result, time.Time) {
		clk := vclock.NewVirtual(epoch)
		fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.Uniform(3, 1.0)})
		job := montecarlo.NewJob(smallMCConfig())
		var res Result
		clk.Run(func() {
			res, _ = fw.Run(job, nil)
		})
		return res, clk.Now()
	}
	r1, end1 := run()
	r2, end2 := run()
	if r1.Metrics != r2.Metrics {
		t.Fatalf("metrics differ:\n%+v\n%+v", r1.Metrics, r2.Metrics)
	}
	if !end1.Equal(end2) {
		t.Fatalf("virtual end times differ: %v vs %v", end1, end2)
	}
}

func TestMoreWorkersFasterUntilPlanningBound(t *testing.T) {
	elapsed := func(n int) time.Duration {
		clk := vclock.NewVirtual(epoch)
		fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.Uniform(n, cluster.Speed300MHz)})
		job := montecarlo.NewJob(smallMCConfig())
		var res Result
		var err error
		clk.Run(func() { res, err = fw.Run(job, nil) })
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.ParallelTime
	}
	t1, t2, t4 := elapsed(1), elapsed(2), elapsed(4)
	if t2 >= t1 || t4 >= t2 {
		t.Fatalf("no speedup: 1→%v 2→%v 4→%v", t1, t2, t4)
	}
}

func TestRayTraceDistributedMatchesSerial(t *testing.T) {
	cfg := raytrace.DefaultJobConfig()
	cfg.Width, cfg.Height, cfg.StripWidth = 120, 90, 30
	cfg.WorkPerPixel = 50 * time.Microsecond
	job := raytrace.NewJob(cfg)

	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.FivePC()[:3]})
	var err error
	clk.Run(func() { _, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	img, complete := job.Image()
	if !complete {
		t.Fatal("image incomplete")
	}
	want, _ := cfg.Scene.RenderStrip(120, 90, 0, 120)
	if !bytes.Equal(img, want) {
		t.Fatal("distributed render differs from serial")
	}
}

func TestPageRankIterativeThroughFramework(t *testing.T) {
	cfg := pagerank.DefaultJobConfig()
	cfg.Graph = pagerank.SyntheticCluster(60, 9)
	cfg.StripRows = 15
	cfg.Iterations = 4
	cfg.WorkPerStrip = 50 * time.Millisecond
	job := pagerank.NewJob(cfg)

	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.Uniform(3, 1.0)})
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Phases != 4 {
		t.Fatalf("phases = %d, want 4", res.Metrics.Phases)
	}
	if res.Metrics.Tasks != 4*4 { // 60 rows / 15 per strip = 4 tasks × 4 rounds
		t.Fatalf("tasks = %d, want 16", res.Metrics.Tasks)
	}
	want := pagerank.PowerIterate(cfg.Graph.Stochastic(), cfg.Damping, 4)
	if d := pagerank.L1Diff(job.Ranks(), want); d > 1e-9 {
		t.Fatalf("distributed ranks differ from serial by %g", d)
	}
}

func TestMonitoredRunStartsWorkersViaRuleBase(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{
		Workers:      cluster.Uniform(2, 1.0),
		Monitoring:   true,
		PollInterval: 300 * time.Millisecond,
	})
	job := montecarlo.NewJob(smallMCConfig())
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if job.ResultCount() != 12 {
		t.Fatalf("results = %d", job.ResultCount())
	}
	starts := 0
	for _, ev := range res.Events {
		if ev.Signal == rulebase.SignalStart {
			starts++
		}
	}
	if starts != 2 {
		t.Fatalf("start signals = %d, want 2 (one per worker)", starts)
	}
	for node, log := range res.SignalLogs {
		if len(log) == 0 {
			t.Fatalf("%s received no signals", node)
		}
		if log[0].Signal != rulebase.SignalStart {
			t.Fatalf("%s first signal = %v", node, log[0].Signal)
		}
	}
}

func TestLoadedNodeIsAvoided(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{
		Workers:      cluster.Uniform(3, 1.0),
		Monitoring:   true,
		PollInterval: 300 * time.Millisecond,
	})
	// node01 is busy with a local job for the entire run.
	fw.Cluster.Nodes[0].Machine.SetConstSource("localuser", 90)
	job := montecarlo.NewJob(smallMCConfig())
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if job.ResultCount() != 12 {
		t.Fatalf("results = %d", job.ResultCount())
	}
	if st := res.WorkerStats["node01"]; st.TasksDone != 0 {
		t.Fatalf("loaded node ran %d tasks; rule base failed to keep it stopped", st.TasksDone)
	}
	if st := res.WorkerStats["node02"]; st.TasksDone == 0 {
		t.Fatal("idle node did no work")
	}
}

func TestAdaptationScriptPausesAndResumes(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{
		Workers:      cluster.Uniform(1, 1.0),
		Monitoring:   true,
		PollInterval: 250 * time.Millisecond,
	})
	cfg := smallMCConfig()
	cfg.TotalSims = 4000 // 40 subtasks so the run outlives the script
	job := montecarlo.NewJob(cfg)
	node := fw.Cluster.Nodes[0]
	script := func(f *Framework) {
		clk.Sleep(2 * time.Second)
		node.Sim2.Start() // 100% load → Stop
		clk.Sleep(2 * time.Second)
		node.Sim2.Stop() // → Restart
		clk.Sleep(2 * time.Second)
		node.Sim1.Start() // 30–50% → Pause
		clk.Sleep(2 * time.Second)
		node.Sim1.Stop() // → Resume
	}
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, script) })
	if err != nil {
		t.Fatal(err)
	}
	if job.ResultCount() != 40 {
		t.Fatalf("results = %d, want 40 (no task lost through the signal storm)", job.ResultCount())
	}
	want := []rulebase.Signal{
		rulebase.SignalStart, rulebase.SignalStop, rulebase.SignalRestart,
		rulebase.SignalPause, rulebase.SignalResume,
	}
	var got []rulebase.Signal
	for _, ev := range res.Events {
		if ev.Err == nil {
			got = append(got, ev.Signal)
		}
	}
	if len(got) < len(want) {
		t.Fatalf("signals = %v, want at least %v", got, want)
	}
	for i, sig := range want {
		if got[i] != sig {
			t.Fatalf("signal[%d] = %v, want %v (all: %v)", i, got[i], sig, got)
		}
	}
	// The CPU trace (Figure 9a's data) must show the load phases.
	hist := node.Machine.History()
	if len(hist) < 10 {
		t.Fatalf("history too short: %d samples", len(hist))
	}
	peak := node.Machine.PeakUsage(epoch, epoch.Add(time.Hour))
	if peak < 99 {
		t.Fatalf("peak usage %v, want ~100 from load simulator 2", peak)
	}
}

// TestCrashedWorkerTaskRecovered: a rogue client takes a task under a
// leased transaction and dies without committing; the shard aborts the
// transaction at its deadline, the task reappears, and the run still
// completes with every result.
func TestCrashedWorkerTaskRecovered(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{
		Workers: cluster.Uniform(2, 1.0),
		Spec: shardhost.Spec{
			TxnTTL: 3 * time.Second, // short lease → fast recovery
		},
	})
	job := montecarlo.NewJob(smallMCConfig())

	script := func(f *Framework) {
		// The rogue "worker" bypasses the worker module: raw proxy, take
		// under a short-lease txn, then vanish.
		c, err := f.Dial("rogue", inProcMaster)
		if err != nil {
			t.Error(err)
			return
		}
		proxy := space.NewProxy(c)
		tx, err := proxy.BeginTxn(3 * time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := proxy.Take(montecarlo.Task{Job: montecarlo.JobName}, tx, 5*time.Second); err != nil {
			t.Errorf("rogue take: %v", err)
		}
		// Dies here: no commit, no abort.
	}

	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, script) })
	if err != nil {
		t.Fatal(err)
	}
	if job.ResultCount() != 12 {
		t.Fatalf("results = %d, want 12 (stolen task not recovered)", job.ResultCount())
	}
	if res.Metrics.Tasks != 12 {
		t.Fatalf("tasks = %d", res.Metrics.Tasks)
	}
}

// TestHeterogeneousClusterNaturalBalance: the paper argues the bag-of-
// tasks model is "naturally load-balanced" — a faster node takes more
// tasks without any explicit scheduling.
func TestHeterogeneousClusterNaturalBalance(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: []cluster.NodeSpec{
		{Name: "fast", Speed: 1.0},
		{Name: "slow", Speed: 0.25},
	}})
	cfg := smallMCConfig()
	cfg.TotalSims = 4000 // 40 subtasks
	cfg.PlanningCostPerTask = 5 * time.Millisecond
	job := montecarlo.NewJob(cfg)
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	fast := res.WorkerStats["fast"].TasksDone
	slow := res.WorkerStats["slow"].TasksDone
	if fast+slow != 40 {
		t.Fatalf("tasks: fast=%d slow=%d", fast, slow)
	}
	// 4× speed should take roughly 4× the tasks (allow 3x as the floor).
	if fast < 3*slow {
		t.Fatalf("no natural balance: fast=%d slow=%d", fast, slow)
	}
}

// TestWorkerStatsExportedOverSNMP: the framework publishes each worker's
// progress counters through the node's SNMP agent, so stock tooling can
// watch cycle-stealing activity.
func TestWorkerStatsExportedOverSNMP(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{Workers: cluster.Uniform(2, 1.0)})
	job := montecarlo.NewJob(smallMCConfig())
	clk.Run(func() {
		if _, err := fw.Run(job, nil); err != nil {
			t.Error(err)
			return
		}
		total := int64(0)
		for _, node := range fw.Cluster.Nodes {
			c, err := fw.Dial(inProcMaster, "node/"+node.Name)
			if err != nil {
				t.Error(err)
				return
			}
			mgr := snmp.NewManager(workerhost.Community, &snmp.RPCExchanger{C: c})
			done, err := mgr.GetInt(snmp.OIDWorkerTasksDone)
			if err != nil {
				t.Error(err)
				return
			}
			total += done
			state, err := mgr.GetInt(snmp.OIDWorkerState)
			if err != nil {
				t.Error(err)
				return
			}
			if state != int64(rulebase.StateStopped) {
				t.Errorf("%s state OID = %d after shutdown", node.Name, state)
			}
			_ = mgr.Close()
		}
		if total != 12 {
			t.Errorf("SNMP tasksDone total = %d, want 12", total)
		}
	})
}

// reactionLatency measures how long after a load burst begins the Stop
// signal is delivered, under poll-only or trap-driven monitoring.
func reactionLatency(t *testing.T, trapDriven bool) time.Duration {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	fw := mustNew(t, clk, InProc(nil, nil), Config{
		Workers:      cluster.Uniform(1, 1.0),
		Monitoring:   true,
		PollInterval: 2 * time.Second,
		TrapDriven:   trapDriven,
		TrapInterval: 50 * time.Millisecond,
	})
	cfg := smallMCConfig()
	cfg.TotalSims = 3000
	job := montecarlo.NewJob(cfg)
	node := fw.Cluster.Nodes[0]
	var loadStart time.Time
	script := func(*Framework) {
		clk.Sleep(5 * time.Second)
		loadStart = clk.Now()
		node.Sim2.Start()
		clk.Sleep(10 * time.Second)
		node.Sim2.Stop()
	}
	var res Result
	var err error
	clk.Run(func() { res, err = fw.Run(job, script) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if ev.Err == nil && ev.Signal == rulebase.SignalStop {
			return ev.At.Sub(loadStart)
		}
	}
	t.Fatal("no Stop signal observed")
	return 0
}

// TestTrapDrivenReactsFasterThanPolling: with traps, the Stop lands well
// inside the poll interval; with polling alone it waits for the next poll.
func TestTrapDrivenReactsFasterThanPolling(t *testing.T) {
	poll := reactionLatency(t, false)
	trap := reactionLatency(t, true)
	if poll < 500*time.Millisecond {
		t.Fatalf("poll-only reacted in %v — script timing broken?", poll)
	}
	if trap > poll/2 {
		t.Fatalf("trap-driven reaction %v not faster than poll-only %v", trap, poll)
	}
	if trap > 500*time.Millisecond {
		t.Fatalf("trap-driven reaction %v too slow", trap)
	}
}

func TestRealClockSmallRun(t *testing.T) {
	// The same framework runs on the wall clock (as cmd tools do).
	clk := vclock.NewReal()
	model := transport.Loopback()
	fw := mustNew(t, clk, InProc(&model, nil), Config{Workers: cluster.Uniform(2, 1.0)})
	cfg := smallMCConfig()
	cfg.TotalSims = 400
	cfg.WorkPerSubtask = time.Millisecond
	cfg.PlanningCostPerTask = 0
	cfg.AggregationCostPerResult = 0
	job := montecarlo.NewJob(cfg)
	res, err := fw.Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.ResultCount() != 4 {
		t.Fatalf("results = %d", job.ResultCount())
	}
	if res.Metrics.ParallelTime <= 0 {
		t.Fatal("no parallel time measured")
	}
}
