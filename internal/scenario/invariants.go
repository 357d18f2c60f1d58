package scenario

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"gospaces/internal/e2e/harness"
	"gospaces/internal/metrics"
	"gospaces/internal/rebalance"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/wal"
)

// checkInvariants asserts the global properties every deployment shape
// must keep, parameterized by what the run actually did (st) rather than
// what the manifest planned — skipped events expect nothing.
func checkInvariants(m Manifest, out harness.Outcome, st *runState, app appRun) []string {
	var v []string
	bad := func(format string, args ...interface{}) {
		v = append(v, fmt.Sprintf(format, args...))
	}

	// Zero lost, zero duplicated work: the aggregate must be exact.
	if app.mc != nil {
		if err := harness.ExactSims(app.mc, wantSims(m)); err != nil {
			bad("montecarlo: %v", err)
		}
	} else if app.rt != nil {
		if _, complete := app.rt.Image(); !complete {
			bad("raytrace image incomplete or over-aggregated")
		}
	}
	if got := out.Result.Metrics.Tasks; got != app.wantTasks {
		bad("planned %d tasks, want %d", got, app.wantTasks)
	}

	// Replication: exactly one promotion per executed kill, and each ring
	// position's epoch counts its kills.
	if m.Replicas == 1 {
		total := 0
		for _, k := range st.kills {
			total += k
		}
		if got := out.Result.Counters[metrics.CounterReplPromotions]; got != uint64(total) {
			bad("promotions = %d, want exactly %d (one per executed kill)", got, total)
		}
		for i, k := range st.kills {
			if e := out.Framework.Host.Epoch(i); e != uint64(1+k) {
				bad("shard %d epoch = %d, want %d (1 + %d kills)", i, e, 1+k, k)
			}
		}
	}

	// Topology convergence: the epoch advanced once per completed
	// reshard, ownership covers the whole hash space, and nothing is
	// left mid-reshard.
	if m.Elastic {
		base := st.samples[0].topo
		want := base + uint64(st.splits+st.merges)
		if got := out.Framework.Host.TopologyEpoch(); got != want {
			bad("topology epoch = %d, want %d (%d at start + %d splits + %d merges)", got, want, base, st.splits, st.merges)
		}
		// A crashed worker's leased transaction legitimately pins an entry
		// for the full TxnTTL — which is also the reshard's settle budget —
		// so a settle timeout is a documented degraded outcome, not a bug:
		// the split/merge completes and the lame-duck sweep finishes the
		// eviction (elastic.go phase 2). The exactness invariant above
		// separately proves nothing was lost. Any other reshard error is a
		// violation.
		if err := out.Framework.Host.Err(); err != nil && !errors.Is(err, rebalance.ErrSettleTimeout) {
			bad("reshard error: %v", err)
		}
		own := out.Framework.Host.Router().Ownership()
		sum := 0.0
		for _, frac := range own {
			sum += frac
		}
		if math.Abs(sum-1) > 1e-9 {
			bad("ring ownership sums to %.12f, want 1", sum)
		}
		live := 0
		for _, si := range out.Framework.Host.Health().Shards {
			if !si.Retired {
				live++
			}
		}
		if live != len(own) {
			bad("%d live shards but %d ring owners", live, len(own))
		}
	}

	// Durability: no journaled mutation may have been dropped.
	if m.Durable {
		if got := out.Result.Counters[tuplespace.CounterJournalErrors]; got != 0 {
			bad("%s = %d, want 0", tuplespace.CounterJournalErrors, got)
		}
	}

	// Epoch monotonicity across every event boundary.
	for s := 1; s < len(st.samples); s++ {
		prev, cur := st.samples[s-1], st.samples[s]
		if cur.topo < prev.topo {
			bad("topology epoch went backwards at event %d: %d -> %d", s-1, prev.topo, cur.topo)
		}
		for i := range cur.shards {
			if cur.shards[i] < prev.shards[i] {
				bad("shard %d epoch went backwards at event %d: %d -> %d", i, s-1, prev.shards[i], cur.shards[i])
			}
		}
	}

	return append(v, st.eventFailures...)
}

// wantSims is the montecarlo exactness target derived from the manifest.
func wantSims(m Manifest) int { return m.App.Tasks * 50 }

// checkWALEquivalence closes the framework and recovers each shard's data
// directory into a fresh space: the restored live-entry count must equal
// what the serving space held at shutdown. This is PR 3's recovery
// guarantee as a universal post-condition instead of one scripted
// scenario.
func checkWALEquivalence(m Manifest, out harness.Outcome, dataDir string, fsync wal.FsyncPolicy) []string {
	var v []string
	infos := out.Framework.Host.Health().Shards
	out.Framework.Close()
	for i := 0; i < m.Shards && i < len(infos); i++ {
		dir := filepath.Join(dataDir, fmt.Sprintf("shard%d", i))
		_, d, err := space.NewLocalDurable(out.Clock, space.DurableOptions{Dir: dir, Fsync: fsync})
		if err != nil {
			v = append(v, fmt.Sprintf("wal-equivalence: reopen shard %d: %v", i, err))
			continue
		}
		if got, want := d.Info().Restored, infos[i].Entries; got != want {
			v = append(v, fmt.Sprintf("wal-equivalence: shard %d recovered %d live entries, had %d at shutdown", i, got, want))
		}
		d.Close()
	}
	return v
}
