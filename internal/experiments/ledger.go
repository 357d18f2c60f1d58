package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/discovery"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/shardhost"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// LedgerRow is one deployment of the per-task ledger (core.PerTask): one
// shard, held in memory, in a WAL or with a hot standby, and Workers worker
// nodes on Tasks tasks of Work each.
type LedgerRow struct {
	Name           string
	Shape          string // "memory", "durable" (WAL-backed) or "standby" (one hot standby)
	Tasks, Workers int
	Work           time.Duration
}

// LedgerRows are the ledger's deployments. The three busy rows run one
// worker on 40 short tasks: it never polls in vain, and on the virtual
// clock their counts repeat exactly. The idle-heavy row runs 8 workers on
// 4 long tasks, so the idle workers' polls time out and abort.
var LedgerRows = []LedgerRow{
	{Name: "memory/busy", Shape: "memory", Tasks: 40, Workers: 1, Work: time.Millisecond},
	{Name: "durable/busy", Shape: "durable", Tasks: 40, Workers: 1, Work: time.Millisecond},
	{Name: "standby/busy", Shape: "standby", Tasks: 40, Workers: 1, Work: time.Millisecond},
	{Name: "standby/idle", Shape: "standby", Tasks: 4, Workers: 8, Work: 300 * time.Millisecond},
}

// RunLedger runs row once — through core.InProc on the virtual clock, or
// with tcp through core.TCP against a loopback lookup service on the real
// clock — and returns the run's result, its PerTask included.
func RunLedger(row LedgerRow, tcp bool) (core.Result, error) {
	spec := shardhost.Spec{Shards: 1, TxnTTL: time.Minute, Obs: obs.New(1)}
	switch row.Shape {
	case "durable":
		dir, err := os.MkdirTemp("", "gospaces-ledger-")
		if err != nil {
			return core.Result{}, err
		}
		defer os.RemoveAll(dir)
		spec.DataDir = dir
	case "standby":
		spec.Replicas = 1
	}
	cfg := core.Config{Spec: spec, Workers: cluster.Uniform(row.Workers, 1.0), ResultTimeout: 30 * time.Second}
	job := montecarlo.NewJob(ledgerJob(row.Tasks, row.Work))
	if !tcp {
		clk := vclock.NewVirtual(epoch)
		f, err := core.New(clk, core.InProc(nil, nil), cfg)
		if err != nil {
			return core.Result{}, err
		}
		defer f.Close()
		var res core.Result
		clk.Run(func() { res, err = f.Run(job, nil) })
		return res, err
	}
	srv := transport.NewServer()
	discovery.NewService(discovery.NewRegistry(vclock.NewReal()), srv)
	lookup, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		return core.Result{}, err
	}
	defer lookup.Close()
	f, err := core.New(vclock.NewReal(), core.TCP(lookup.Addr(), "127.0.0.1:0"), cfg)
	if err != nil {
		return core.Result{}, err
	}
	defer f.Close()
	return f.Run(job, nil)
}

// ledgerJob is an option-pricing job of tasks tasks, each of work modeled
// compute, planned at 1 ms a task.
func ledgerJob(tasks int, work time.Duration) montecarlo.JobConfig {
	cfg := montecarlo.DefaultJobConfig()
	cfg.SimsPerTask = 100
	cfg.TotalSims = tasks * cfg.SimsPerTask
	cfg.WorkPerSubtask = work
	cfg.PlanningCostPerTask = time.Millisecond
	cfg.AggregationCostPerResult = 0
	return cfg
}

// Ledger runs every ledger row over both networks and returns the table of
// what one task cost: space ops, master's and workers' by kind, served
// calls, WAL records and fsyncs, shipped records and ship batches, aborts
// and memo evictions, each per task.
func Ledger() (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "Per-task ledger — what one task of the paper's loop costs, counted (per task)",
		Columns: []string{"row", "network", "space ops", "master ops", "worker ops", "served calls",
			"WAL records", "fsyncs", "shipped records", "ship batches", "aborts", "memo evictions"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, row := range LedgerRows {
		for _, tcp := range []bool{false, true} {
			res, err := RunLedger(row, tcp)
			if err != nil {
				return nil, fmt.Errorf("ledger %s: %w", row.Name, err)
			}
			p := res.PerTask
			network := "inproc"
			if tcp {
				network = "tcp"
			}
			t.AddRow(row.Name, network, f(p.SpaceOps()), opsCell(p.MasterOps), opsCell(p.WorkerOps), f(p.ServedCalls),
				f(p.WALRecords), f(p.WALFsyncs), f(p.ShippedRecords), f(p.ShipBatches), f(p.WorkerOps["abort"]), f(p.MemoEvictions))
		}
	}
	return t, nil
}

// opsCell renders ops by kind, in kind-name order: "take 1 write 1".
func opsCell(ops map[string]float64) string {
	kinds := make([]string, 0, len(ops))
	for k := range ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	cells := make([]string, len(kinds))
	for i, k := range kinds {
		cells[i] = fmt.Sprintf("%s %.3g", k, ops[k])
	}
	return strings.Join(cells, " ")
}
