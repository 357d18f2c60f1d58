package e2e

import (
	"math"
	"testing"
	"time"

	"gospaces/internal/core"
	"gospaces/internal/experiments"
)

// ledgerPins is what TestPerTaskLedger pins of one experiments.LedgerRow.
type ledgerPins struct {
	// busy marks a row with one worker and tasks waiting for it: it never
	// polls in vain, and on the virtual clock its counts repeat exactly
	// and are pinned.
	busy bool
	// A busy row's WAL records and fsyncs, shipped records and ship
	// batches per task.
	wal, fsyncs, shipped, batches float64
}

// TestPerTaskLedger counts what one task of the paper's loop costs: the
// space ops of the master and of the workers, served calls, WAL records
// and fsyncs, shipped records and ship batches (core.Result.PerTask). The
// busy rows run one worker on 40 tasks, on one shard held in memory, in a
// WAL and with a hot standby; the idle-heavy row runs 8 workers on 4 long
// tasks, so the idle workers' polls time out and abort
// (experiments.LedgerRows, which `expt ledger` prints). Each row runs one
// core.Config through core.InProc and core.TCP. A busy row's counts repeat
// exactly on the virtual clock and are pinned; everywhere else the ops are
// pinned, how many polls time out is bounded, and the records follow from
// it.
func TestPerTaskLedger(t *testing.T) {
	pins := map[string]ledgerPins{
		"memory/busy":  {busy: true},
		"durable/busy": {busy: true, wal: 5, fsyncs: 5},
		"standby/busy": {busy: true, shipped: 4.975, batches: 1.975},
		"standby/idle": {},
	}
	for _, row := range experiments.LedgerRows {
		pin, ok := pins[row.Name]
		if !ok {
			t.Fatalf("no pins for ledger row %s", row.Name)
		}
		for _, tcp := range []bool{false, true} {
			name := row.Name + "/inproc"
			if tcp {
				name = row.Name + "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := experiments.RunLedger(row, tcp)
				if err != nil {
					t.Fatal(err)
				}
				tasks := res.Metrics.Tasks
				if tcp {
					waves := (tasks + row.Workers - 1) / row.Workers
					compute := time.Duration(waves) * row.Work
					t.Logf("per_task_overhead_us %.0f: wall-clock parallel time %v beyond %d waves of modeled compute, per task; the pricing's own arithmetic is in it (planning %v, aggregation %v)",
						float64(res.Metrics.ParallelTime-compute)/float64(tasks)/1e3, res.Metrics.ParallelTime, waves,
						res.Metrics.TaskPlanningTime, res.Metrics.TaskAggregationTime)
				}
				checkLedger(t, row, pin, pin.busy && !tcp, tasks, res.PerTask)
			})
		}
	}
}

// checkLedger requires the per-task counts p to be row's: exactly, as
// pin says, or within the bounds of a run whose idle polls vary.
func checkLedger(t *testing.T, row experiments.LedgerRow, pin ledgerPins, exact bool, tasks int, p *core.PerTask) {
	t.Helper()
	if p == nil {
		t.Fatal("no per-task ledger with Obs set")
	}
	t.Logf("%.3f space ops (master %v, workers %v), %.3f served calls, %.3f WAL records, %.3f fsyncs, %.3f shipped records, %.3f ship batches, %.3f memo evictions per task",
		p.SpaceOps(), p.MasterOps, p.WorkerOps, p.ServedCalls, p.WALRecords, p.WALFsyncs, p.ShippedRecords, p.ShipBatches, p.MemoEvictions)
	eq := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: %.4f per task, want %.4f", what, got, want)
		}
	}
	// Every task is one write and one take of the master's, and one
	// transaction of a worker's: a take, a result write and a commit. An
	// idle poll is a transaction whose take timed out, aborted.
	aborts := p.WorkerOps["abort"]
	eq("master writes", p.MasterOps["write"], 1)
	eq("master takes", p.MasterOps["take"], 1)
	eq("master op kinds", float64(len(p.MasterOps)), 2)
	eq("worker writes", p.WorkerOps["write"], 1)
	eq("worker commits", p.WorkerOps["commit"], 1)
	eq("worker txns", p.WorkerOps["begin_txn"], 1+aborts)
	eq("worker takes", p.WorkerOps["take"], 1+aborts)
	eq("space ops", p.SpaceOps(), 6+3*aborts)
	// The master reaches its shard in process: every served call is a
	// worker's op.
	eq("served calls", p.ServedCalls, 4+3*aborts)
	eq("memo evictions", p.MemoEvictions, 0)
	if exact {
		eq("aborts", aborts, 0)
		eq("WAL records", p.WALRecords, pin.wal)
		eq("WAL fsyncs", p.WALFsyncs, pin.fsyncs)
		eq("shipped records", p.ShippedRecords, pin.shipped)
		eq("ship batches", p.ShipBatches, pin.batches)
		return
	}
	// How many polls time out varies with goroutine order, and over TCP
	// with the wall clock. A task journals five records: the task's write,
	// the worker's commit (the result's write, the task's remove, the
	// commit's memo) and the result's take. An idle poll journals one, its
	// abort's memo. A ship may still be on its way when the run's counters
	// are read.
	if pin.busy && aborts > 0.5 || !pin.busy && (aborts == 0 || aborts > 4*float64(row.Workers)) {
		t.Errorf("aborts: %.4f per task, out of bounds for %d workers on %d tasks", aborts, row.Workers, tasks)
	}
	if row.Shape == "durable" {
		eq("WAL records", p.WALRecords, 5+aborts)
		eq("WAL fsyncs", p.WALFsyncs, 5+aborts)
	} else {
		eq("WAL records", p.WALRecords, 0)
		eq("WAL fsyncs", p.WALFsyncs, 0)
	}
	if row.Shape != "standby" {
		eq("shipped records", p.ShippedRecords, 0)
	} else if got := p.ShippedRecords; got < 5-1/float64(tasks)-1e-9 || got > 5+aborts+1e-9 {
		t.Errorf("shipped records: %.4f per task, want 5 (the last may be in flight) plus at most one per abort (%.4f)", got, aborts)
	}
	if p.ShipBatches > p.ShippedRecords {
		t.Errorf("%.4f ship batches per task carry %.4f records", p.ShipBatches, p.ShippedRecords)
	}
}
