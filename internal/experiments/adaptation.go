package experiments

import (
	"fmt"
	"time"

	"gospaces/internal/core"
	"gospaces/internal/metrics"
	"gospaces/internal/netmgmt"
	"gospaces/internal/rulebase"
	"gospaces/internal/sysmon"
	"gospaces/internal/vclock"
)

// AdaptationResult is the data behind one of Figures 9–11: part (a) is
// the worker's CPU-usage trace, part (b) the per-signal reaction times.
type AdaptationResult struct {
	App    AppName
	Trace  []sysmon.Sample
	Events []netmgmt.Event
	Run    core.Result
}

// Adaptation runs app on a single monitored worker while the paper's load
// schedule plays out (§5.2.2): the worker starts, load simulator 2 forces
// a Stop, its removal a Restart, load simulator 1 a Pause, and its
// removal a Resume.
func Adaptation(app AppName) (AdaptationResult, error) {
	clk := vclock.NewVirtual(epoch)
	specs := clusterFor(app)[:1]
	fw, err := core.New(clk, core.InProc(nil, nil), withObs(core.Config{
		Workers:      specs,
		Monitoring:   true,
		PollInterval: time.Second,
	}))
	if err != nil {
		return AdaptationResult{}, err
	}
	job := jobFor(app)
	node := fw.Cluster.Nodes[0]

	script := func(*core.Framework) {
		clk.Sleep(6 * time.Second)
		node.Sim2.Start() // CPU → 100%: Stop
		clk.Sleep(10 * time.Second)
		node.Sim2.Stop() // idle again: Restart
		clk.Sleep(10 * time.Second)
		node.Sim1.Start() // CPU → 30–50%: Pause
		clk.Sleep(10 * time.Second)
		node.Sim1.Stop() // idle again: Resume
	}

	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, script) })
	if err != nil {
		return AdaptationResult{}, fmt.Errorf("experiments: adaptation %s: %w", app, err)
	}
	return AdaptationResult{
		App:    app,
		Trace:  node.Machine.History(),
		Events: res.Events,
		Run:    res,
	}, nil
}

// Fig9AdaptationOptionPricing regenerates Figure 9.
func Fig9AdaptationOptionPricing() (AdaptationResult, error) { return Adaptation(OptionPricing) }

// Fig10AdaptationRayTracing regenerates Figure 10.
func Fig10AdaptationRayTracing() (AdaptationResult, error) { return Adaptation(RayTracing) }

// Fig11AdaptationPrefetch regenerates Figure 11.
func Fig11AdaptationPrefetch() (AdaptationResult, error) { return Adaptation(Prefetching) }

// SignalTable renders part (b) of an adaptation figure: client and worker
// signal times per received signal.
func (r AdaptationResult) SignalTable(title string) *metrics.Table {
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"signal", "t_ms", "client_signal_ms", "worker_signal_ms"},
	}
	for _, ev := range r.Events {
		if ev.Err != nil || ev.Signal == rulebase.SignalNone {
			continue
		}
		t.AddRow(ev.Signal.String(),
			fmt.Sprint(ev.At.Sub(epoch).Milliseconds()),
			fmt.Sprintf("%.1f", float64(ev.Record.ClientTime().Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(ev.Record.WorkerTime().Microseconds())/1000))
	}
	return t
}

// TraceTable renders part (a): the CPU usage history the monitoring agent
// sampled.
func (r AdaptationResult) TraceTable(title string) *metrics.Table {
	t := &metrics.Table{Title: title, Columns: []string{"t_ms", "cpu_pct"}}
	for _, s := range r.Trace {
		t.AddRow(fmt.Sprint(s.At.Sub(epoch).Milliseconds()), fmt.Sprintf("%.0f", s.Usage))
	}
	return t
}

// Signals returns the clean (errorless) signal sequence.
func (r AdaptationResult) Signals() []rulebase.Signal {
	var out []rulebase.Signal
	for _, ev := range r.Events {
		if ev.Err == nil {
			out = append(out, ev.Signal)
		}
	}
	return out
}
