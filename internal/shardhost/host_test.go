package shardhost

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/shard"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// kv is the tests' entry: keyed, so the ring places it.
type kv struct {
	K string `space:"index"`
	V int
}

func init() { transport.RegisterType(kv{}) }

// failover is the tests' FailoverTimeout. It must exceed the primary
// pump's 500 ms heartbeat or an idle pair would fail over spuriously.
const failover = 1500 * time.Millisecond

// deployment is one environment under test: an Env, the lookup service
// behind it, and how a remote client reaches a node it discovered there.
type deployment struct {
	name   string
	clock  vclock.Clock
	env    Env
	dial   func(t *testing.T, addr string) transport.Client
	lookup func(tmpl map[string]string) []discovery.ServiceItem
}

// inproc deploys on an in-process network with a direct registry.
func inproc(t *testing.T) deployment {
	clk := vclock.NewReal()
	nw := transport.NewNetwork(clk, transport.Loopback())
	reg := discovery.NewRegistry(clk)
	return deployment{
		name: "inproc", clock: clk,
		env:    InProcEnv(nw, "master", reg),
		dial:   func(_ *testing.T, addr string) transport.Client { return nw.Dial(addr) },
		lookup: reg.Lookup,
	}
}

// tcp deploys on loopback TCP against an in-test lookup listener — the
// assembly cmd/master runs.
func tcp(t *testing.T) deployment {
	clk := vclock.NewReal()
	reg := discovery.NewRegistry(clk)
	lsrv := transport.NewServer()
	discovery.NewService(reg, lsrv)
	ll, err := transport.ListenTCP("127.0.0.1:0", lsrv)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := transport.DialTCP(ll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	group := vclock.NewGroup(clk)
	t.Cleanup(func() { group.Wait(); lc.Close(); ll.Close() })
	env, err := TCPEnv("127.0.0.1:0", discovery.NewClient(lc))
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn = group.Go
	return deployment{
		name: "tcp", clock: clk, env: env, lookup: reg.Lookup,
		dial: func(t *testing.T, addr string) transport.Client {
			c, err := transport.DialTCP(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
}

// host builds and starts a host on d; cleanup closes it before d's own.
func (d deployment) host(t *testing.T, spec Spec) *Host {
	h, err := New(d.clock, d.env, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	h.Start()
	return h
}

// eventually polls cond on d's clock until it holds or limit elapses.
func (d deployment) eventually(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := d.clock.Now().Add(limit); !cond(); {
		if d.clock.Now().After(deadline) {
			t.Fatalf("%s: %s did not happen within %v", d.name, what, limit)
		}
		w := d.clock.NewWaiter()
		w.Wait(20 * time.Millisecond)
	}
}

// promoted waits for the registration that claims ring at epoch and
// returns the promoted node's address.
func (d deployment) promoted(t *testing.T, ring string, epoch uint64) string {
	t.Helper()
	var addr string
	d.eventually(t, 4*failover, fmt.Sprintf("epoch-%d registration of %s", epoch, ring), func() bool {
		for _, it := range d.lookup(map[string]string{"type": "javaspace", shard.AttrRing: ring}) {
			if shard.ItemEpoch(it) == epoch {
				addr = it.Address
				return true
			}
		}
		return false
	})
	return addr
}

func typeCounts(t *testing.T, sp space.Space) map[string]int {
	t.Helper()
	res, err := sp.Do(space.Op{Kind: space.OpTypeCounts})
	if err != nil {
		t.Fatalf("type counts: %v", err)
	}
	return res.Counts
}

// view is a Health report with everything environment-specific removed.
// Ring IDs are addresses, and the ring hashes them, so which shard holds
// which entry (and how much of the hash space) differs by environment:
// those are reported as totals. Byte positions become "has a log"; a
// retired shard is just that.
func view(h obs.Health) string {
	var b strings.Builder
	fmt.Fprintf(&b, "status=%s topo=%d overload=%+v\n", h.Status, h.TopologyEpoch, h.Overload)
	entries, owned := 0, 0.0
	for _, sh := range h.Shards {
		entries += sh.Entries
		owned += sh.OwnedFraction
		if sh.Retired {
			fmt.Fprintf(&b, "shard=%d born=%v retired\n", sh.Shard, sh.SplitBorn)
			continue
		}
		fmt.Fprintf(&b, "shard=%d role=%s epoch=%d lag=%d wal=%v born=%v inflight=%d\n",
			sh.Shard, sh.Role, sh.Epoch, sh.ReplicationLag, sh.WALPosition > 0, sh.SplitBorn, sh.Inflight)
	}
	fmt.Fprintf(&b, "entries=%d owned=%.3f\n", entries, owned)
	return b.String()
}

// TestOneScriptTwoEnvironments drives one lifecycle script — failover,
// rejoin, split, merge, crash-restart of a replicated durable pair — over
// the in-process network and over loopback TCP, and requires the two
// environments to be indistinguishable: the same health report (modulo
// addresses), the same contents and a converged standby after every step.
// It is the only test in the tree that drives the TCP assembly through its
// whole life.
func TestOneScriptTwoEnvironments(t *testing.T) {
	const entries = 48
	run := func(t *testing.T, d deployment) []string {
		h := d.host(t, Spec{
			Shards: 2, Replicas: 1, Elastic: true, FailoverTimeout: failover,
			DataDir: t.TempDir(), FsyncPolicy: wal.FsyncNever,
			WatchInterval: 25 * time.Millisecond,
		})
		var script []string
		check := func(step string) {
			t.Helper()
			// A reshard's evictions reach the standby with the pump's next
			// beat; every other step has already flushed.
			d.eventually(t, 3*time.Second, step+": standbys converge", func() bool {
				for _, sh := range h.Health().Shards {
					p, b := h.ReplicaState(sh.Shard)
					if sh.Retired || b.Promoted() { // merged away, or awaiting its rejoin
						continue
					}
					if b.Applied() != p.Seq() || p.Lag() != 0 { // applied, and the ack is home
						return false
					}
				}
				return true
			})
			counts := typeCounts(t, h.Space())
			if got := counts["shardhost.kv"]; got != entries {
				t.Fatalf("%s/%s: %d entries, want %d (%v)", d.name, step, got, entries, counts)
			}
			script = append(script, fmt.Sprintf("== %s\n%s", step, view(h.Health())))
		}

		for i := 0; i < entries; i++ {
			if _, err := h.Space().Write(kv{K: fmt.Sprintf("k%02d", i), V: i}, nil, tuplespace.Forever); err != nil {
				t.Fatalf("%s: write %d: %v", d.name, i, err)
			}
		}
		check("written")

		ring0, _ := h.RingID(0)
		ring1, _ := h.RingID(1)
		if err := h.KillPrimary(0); err != nil {
			t.Fatal(err)
		}
		d.promoted(t, ring0, 2)
		check("failed over")

		if err := h.Rejoin(0); err != nil {
			t.Fatalf("%s: rejoin: %v", d.name, err)
		}
		check("rejoined")

		rep, err := h.Split(ring1)
		if err != nil {
			t.Fatalf("%s: split: %v", d.name, err)
		}
		check("split")

		if err := h.Merge(rep.Child); err != nil {
			t.Fatalf("%s: merge: %v", d.name, err)
		}
		check("merged")

		ops := func(ring string) uint64 {
			t.Helper()
			for _, s := range h.loadSamples() {
				if s.ID == ring {
					return s.Ops
				}
			}
			t.Fatalf("%s: no load sample for %s", d.name, ring)
			return 0
		}
		crashed := ops(ring1)
		info, err := h.Restart(1)
		if err != nil {
			t.Fatalf("%s: restart: %v", d.name, err)
		}
		if info.Restored == 0 {
			t.Fatalf("%s: restart recovered nothing from the WAL", d.name)
		}
		// Recovery replays a subset of the node's history, so a restart
		// never raises its op count: the rebalancer reads it as a counter
		// reset, not as a burst of load.
		if restarted := ops(ring1); restarted > crashed {
			t.Fatalf("%s: restart raised the load sample's op count %d → %d", d.name, crashed, restarted)
		}
		check("restarted")
		if err := h.Err(); err != nil {
			t.Fatalf("%s: background error: %v", d.name, err)
		}
		return script
	}

	scripts := map[string][]string{}
	for _, d := range []deployment{inproc(t), tcp(t)} {
		d := d
		t.Run(d.name, func(t *testing.T) { scripts[d.name] = run(t, d) })
	}
	a, b := strings.Join(scripts["inproc"], ""), strings.Join(scripts["tcp"], "")
	if a != b {
		t.Fatalf("the two environments diverged:\n--- inproc\n%s--- tcp\n%s", a, b)
	}
	for _, want := range []string{
		"== failed over\nstatus=ok topo=1 ",
		"shard=0 role=backup epoch=2 lag=0 wal=true born=false inflight=0\nshard=1 role=primary epoch=1 ",
		"== split\nstatus=ok topo=2 ",
		"shard=2 role=primary epoch=1 lag=0 wal=true born=true inflight=0\nentries=48 owned=1.000\n",
		"== merged\nstatus=ok topo=3 ",
		"shard=2 born=true retired\nentries=48 owned=1.000\n",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("script lacks %q:\n%s", want, a)
		}
	}
}

// lateClock is a client whose deadlines have always just passed: frames it
// stamps are an hour stale when the server reads them.
type lateClock struct{ *vclock.Real }

func (lateClock) Now() time.Time { return time.Now().Add(-time.Hour) }

// TestTCPAdmissionFollowsServingNode: over the TCP Env, a promoted standby
// and a split-born shard enforce admission like a seed, and /healthz reads
// the serving node's controller. At the parent commit cmd/master served
// both kinds of node through an unconfigured space.Service — admission was
// a pass-through, so -max-inflight and the expired-deadline drop silently
// stopped applying after the first failover or split; its /healthz kept
// reading the dead primary's controller (a stale services[i]); and
// -autoshard replaced the health provider with one that had no overload
// block at all.
func TestTCPAdmissionFollowsServingNode(t *testing.T) {
	d := tcp(t)
	o := obs.New(1)
	h := d.host(t, Spec{
		Shards: 1, Replicas: 1, FailoverTimeout: failover, MaxInflight: 1, Obs: o,
		// -autoshard with thresholds no test load reaches: the rebalancer
		// runs, the health provider is the elastic one, nothing reshards.
		AutoShard: true, SplitThreshold: 1e9, ReshardInterval: 50 * time.Millisecond,
		WatchInterval: 25 * time.Millisecond,
	})
	ring0, _ := h.RingID(0)
	if err := h.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	standby := d.promoted(t, ring0, 2)
	rep, err := h.Split(ring0)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	child, _ := h.ShardIndex(rep.Child)

	for _, node := range []struct {
		kind, addr string
		shard      int
	}{{"promoted standby", standby, 0}, {"split-born shard", rep.Child, child}} {
		before := o.HealthReport().Overload

		late := space.NewProxy(d.dial(t, node.addr)).WithOpTimeout(lateClock{vclock.NewReal()}, time.Second)
		if _, err := late.Count(kv{}); !errors.Is(err, tuplespace.ErrDeadlineExpired) {
			t.Fatalf("%s: op past its frame deadline: err = %v, want ErrDeadlineExpired", node.kind, err)
		}

		// One parked take fills MaxInflight; the next op must fast-fail.
		parked := make(chan error, 1)
		go func() {
			_, err := space.NewProxy(d.dial(t, node.addr)).Take(kv{K: "parked"}, nil, 30*time.Second)
			parked <- err
		}()
		d.eventually(t, 3*time.Second, node.kind+" admits the parked take", func() bool {
			return o.HealthReport().Shards[node.shard].Inflight == 1
		})
		if _, err := space.NewProxy(d.dial(t, node.addr)).Count(kv{}); !errors.Is(err, tuplespace.ErrOverloaded) {
			t.Fatalf("%s: op beyond MaxInflight: err = %v, want ErrOverloaded", node.kind, err)
		}

		hl := o.HealthReport()
		if got := hl.Overload; got.MaxInflight != 1 || got.Inflight != 1 ||
			got.DeadlineExpired != before.DeadlineExpired+1 || got.Rejected != before.Rejected+1 {
			t.Fatalf("%s: /healthz overload = %+v (before: %+v), want the serving node's vitals", node.kind, got, before)
		}
		js, _ := json.Marshal(hl)
		for _, want := range []string{`"max_inflight":1`, `"inflight":1`, `"brownout_level":0`, `"topology_epoch":2`} {
			if !strings.Contains(string(js), want) {
				t.Fatalf("%s: /healthz lacks %s: %s", node.kind, want, js)
			}
		}

		// The master's in-process handle is not admission-controlled: its
		// write wakes the parked take and frees the slot.
		if _, err := h.Shards()[node.shard].Write(kv{K: "parked"}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		if err := <-parked; err != nil {
			t.Fatalf("%s: parked take: %v", node.kind, err)
		}
	}

	// Each position's gauges on /metrics read the serving node's store: the
	// live count and, beside it, the list slack the takes above left.
	for _, sh := range h.Health().Shards {
		live := scrape(t, o, metrics.GaugeShardEntries(sh.Shard))
		dead := scrape(t, o, metrics.GaugeShardDeadEntries(sh.Shard))
		if live != 0 || dead < 0 {
			t.Fatalf("shard %d: entries %d, dead entries %d", sh.Shard, live, dead)
		}
	}
}

// scrape renders o's /metrics page and returns the value of the gauge
// named key, failing the test when the page lacks it.
func scrape(t *testing.T, o *obs.Obs, key string) int64 {
	t.Helper()
	var page strings.Builder
	obs.WriteMetrics(&page, o)
	name := "gospaces_" + strings.ReplaceAll(key, ":", "_") + " "
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lacks %s:\n%s", key, page.String())
	return 0
}

// TestShardGaugesFollowPromotion: shard0:entries reads whichever node
// serves ring position 0, so after KillPrimary it reads the promoted
// standby's store — not the dead primary's, which still holds every entry.
func TestShardGaugesFollowPromotion(t *testing.T) {
	const entries, taken = 10, 4
	d := inproc(t)
	o := obs.New(1)
	h := d.host(t, Spec{Shards: 1, Replicas: 1, FailoverTimeout: failover, Obs: o})
	for i := 0; i < entries; i++ {
		if _, err := h.Space().Write(kv{K: fmt.Sprintf("k%02d", i), V: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	if got := scrape(t, o, metrics.GaugeShardEntries(0)); got != entries {
		t.Fatalf("before failover: shard0:entries = %d, want %d", got, entries)
	}
	deposed := h.Shards()[0].TS
	ring0, _ := h.RingID(0)
	if err := h.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	d.promoted(t, ring0, 2)
	for i := 0; i < taken; i++ {
		if _, err := h.Space().Take(kv{K: fmt.Sprintf("k%02d", i)}, nil, time.Second); err != nil {
			t.Fatalf("take %d after failover: %v", i, err)
		}
	}
	if n := deposed.Stats().EntriesLive; n != entries {
		t.Fatalf("the dead primary holds %d entries, want %d untouched", n, entries)
	}
	if got := scrape(t, o, metrics.GaugeShardEntries(0)); got != entries-taken {
		t.Fatalf("after failover: shard0:entries = %d, want the promoted store's %d", got, entries-taken)
	}
	if got, want := scrape(t, o, metrics.GaugeShardDeadEntries(0)), int64(h.Shards()[0].TS.Stats().Dead); got != want {
		t.Fatalf("after failover: shard0:dead_entries = %d, want the promoted store's %d", got, want)
	}
}

// TestTCPSplitThenFailover is -autoshard -replicas 1 over TCP, which the
// parent's cmd/master rejected: a replicated one-shard host splits, the
// split-born child's primary is killed, its standby promotes at epoch 2,
// and every entry written before is still readable through the
// master-side handle.
func TestTCPSplitThenFailover(t *testing.T) {
	const entries = 40
	d := tcp(t)
	h := d.host(t, Spec{
		Shards: 1, Replicas: 1, AutoShard: true, SplitThreshold: 1e9,
		FailoverTimeout: failover, WatchInterval: 25 * time.Millisecond,
	})
	for i := 0; i < entries; i++ {
		if _, err := h.Space().Write(kv{K: fmt.Sprintf("k%02d", i), V: i}, nil, tuplespace.Forever); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	ring0, _ := h.RingID(0)
	rep, err := h.Split(ring0)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if rep.Migrated == 0 || rep.Migrated == entries {
		t.Fatalf("split moved %d of %d entries, want a proper share", rep.Migrated, entries)
	}
	child, ok := h.ShardIndex(rep.Child)
	if !ok {
		t.Fatalf("no shard index for %s", rep.Child)
	}
	if err := h.KillPrimary(child); err != nil {
		t.Fatal(err)
	}
	d.promoted(t, rep.Child, 2)
	if got := h.Epoch(child); got != 2 {
		t.Fatalf("child epoch = %d, want 2", got)
	}
	for i := 0; i < entries; i++ {
		e, err := h.Space().ReadIfExists(kv{K: fmt.Sprintf("k%02d", i)}, nil)
		if err != nil {
			t.Fatalf("read k%02d after the child failed over: %v", i, err)
		}
		if got := e.(kv).V; got != i {
			t.Fatalf("k%02d = %d, want %d", i, got, i)
		}
	}
	if err := h.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
}

// TestTCPListingsLapseWhenRenewalsStop hosts an elastic, replicated shard
// set over TCPEnv with a 300 ms binding lease and a Spawn the test owns,
// and splits it once. Every item the host lists — each ring position's
// primary, under a FailoverTimeout lease its pump renews, and the topology
// record, under the binding's lease and its own renewal — stays listed
// well past its lease, and no standby is listed. Cut off from the lookup
// service, the host's renewals stop: the topology record's renewal process
// ends, and every item lapses within its lease.
func TestTCPListingsLapseWhenRenewalsStop(t *testing.T) {
	const lease = 300 * time.Millisecond
	const slack = 150 * time.Millisecond
	clk := vclock.NewReal()
	reg := discovery.NewRegistry(clk)
	lsrv := transport.NewServer()
	discovery.NewService(reg, lsrv)
	ll, err := transport.ListenTCP("127.0.0.1:0", lsrv)
	if err != nil {
		t.Fatal(err)
	}
	defer ll.Close()
	lc, err := transport.DialTCP(ll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	env, err := TCPEnv("127.0.0.1:0", discovery.NewClient(lc))
	if err != nil {
		t.Fatal(err)
	}
	env.Lease = lease
	group := vclock.NewGroup(clk)
	defer group.Wait()
	var live atomic.Int32 // the host's background processes still running
	env.Spawn = func(fn func()) {
		live.Add(1)
		group.Go(func() { defer live.Add(-1); fn() })
	}
	h, err := New(clk, env, Spec{Shards: 1, Replicas: 1, Elastic: true, FailoverTimeout: failover, WatchInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Start()
	for i := 0; i < 20; i++ {
		if _, err := h.Space().Write(kv{K: fmt.Sprintf("k%02d", i), V: i}, nil, tuplespace.Forever); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	ring0, _ := h.RingID(0)
	if _, err := h.Split(ring0); err != nil {
		t.Fatalf("split: %v", err)
	}
	listed := func(typ string) int { return len(reg.Lookup(map[string]string{"type": typ})) }

	clk.Sleep(failover + failover/2)
	if n, topo, all := listed(shard.SpaceType), listed(shard.TopoType), reg.Len(); n != 2 || topo != 1 || all != 3 {
		t.Fatalf("after %v: %d javaspace and %d topology registrations of %d, want 2 and 1 of 3", failover+failover/2, n, topo, all)
	}
	running := live.Load()

	lc.Close()
	clk.Sleep(lease + slack)
	if topo := listed(shard.TopoType); topo != 0 {
		t.Errorf("%v after the cut the topology record is still listed", lease+slack)
	}
	if got := live.Load(); got != running-1 {
		t.Errorf("%d background processes after the cut, want %d: the topology record's renewal should have ended", got, running-1)
	}
	clk.Sleep(failover - lease)
	if all := reg.Len(); all != 0 {
		t.Errorf("%v after the cut %d items are still listed, want 0", failover+slack, all)
	}
	if err := h.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
}

// TestSplitReportsEntriesNotRecords: a split's Migrated count and the
// reshard:entries_migrated counter are entries. Every write through the
// master's router is tokened, so each moving entry travels with its memo;
// at the parent commit Fork returned the snapshot's record count, memos
// included, and a split that moved half of 40 entries reported 40.
func TestSplitReportsEntriesNotRecords(t *testing.T) {
	const entries = 40
	d := inproc(t)
	h := d.host(t, Spec{Shards: 1, Elastic: true, WatchInterval: 25 * time.Millisecond})
	for i := 0; i < entries; i++ {
		if _, err := h.Space().Write(kv{K: fmt.Sprintf("k%02d", i), V: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	ring0, _ := h.RingID(0)
	rep, err := h.Split(ring0)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	owner := shard.OwnerFunc(h.Router().Topology())
	moved := 0
	for i := 0; i < entries; i++ {
		if owner(fmt.Sprintf("k%02d", i)) == rep.Child {
			moved++
		}
	}
	if moved == 0 || moved == entries {
		t.Fatalf("the child owns %d of %d keys; pick keys that split", moved, entries)
	}
	if rep.Migrated != moved {
		t.Fatalf("split reports %d migrated, the child owns %d entries", rep.Migrated, moved)
	}
	if got := h.Counters.Get(metrics.CounterReshardMigrated); got != uint64(moved) {
		t.Fatalf("%s = %d, want %d", metrics.CounterReshardMigrated, got, moved)
	}
	child, _ := h.ShardIndex(rep.Child)
	ts := h.Shards()[child].TS
	if got := ts.Stats().EntriesLive; got != moved {
		t.Fatalf("child holds %d entries, want %d", got, moved)
	}
	if memos, _, _ := ts.MemoStats(); memos != moved {
		t.Fatalf("child holds %d memos, want one per migrated write (%d)", memos, moved)
	}
}

// failingDisk fails every write with errDiskFailure while armed.
type failingDisk struct {
	w     io.Writer
	armed *atomic.Bool
}

var errDiskFailure = errors.New("injected disk failure")

func (f failingDisk) Write(p []byte) (int, error) {
	if f.armed.Load() {
		return 0, errDiskFailure
	}
	return f.w.Write(p)
}

// TestDurableHostIsStrict: a hosted durable shard acknowledges nothing its
// log refused. Once Spec.StrictDurability was set by no caller, so every
// hosted WAL was lenient: the write below succeeded, the entry was served,
// and only journal:errors said the disk had refused it.
//
// The refused write and its token replays are consecutive failures that a
// promoted standby could cure, so they trip the master's circuit breaker:
// a write inside the cooldown fast-fails naming the disk's error, and the
// first write after it is the probe that finds the healed disk.
func TestDurableHostIsStrict(t *testing.T) {
	d := inproc(t)
	var armed atomic.Bool
	d.env.WrapWriter = func(string) func(io.Writer) io.Writer {
		return func(w io.Writer) io.Writer { return failingDisk{w, &armed} }
	}
	h := d.host(t, Spec{Shards: 1, DataDir: t.TempDir()})
	armed.Store(true)
	if _, err := h.Space().Write(kv{K: "refused", V: 1}, nil, tuplespace.Forever); !errors.Is(err, errDiskFailure) {
		t.Fatalf("a write the WAL refused: err = %v, want the disk's error", err)
	}
	armed.Store(false)
	if n := h.Shards()[0].TS.Stats().EntriesLive; n != 0 {
		t.Fatalf("the shard serves %d entries its log refused", n)
	}
	if got := h.Counters.Get(metrics.CounterJournalErrors); got == 0 {
		t.Fatalf("%s = 0, want the refusal counted", metrics.CounterJournalErrors)
	}
	_, err := h.Space().Write(kv{K: "logged", V: 2}, nil, tuplespace.Forever)
	if !errors.Is(err, shard.ErrBreakerOpen) || !errors.Is(err, errDiskFailure) {
		t.Fatalf("write inside the breaker's cooldown: err = %v, want ErrBreakerOpen naming the disk's error", err)
	}
	if n := h.Shards()[0].TS.Stats().EntriesLive; n != 0 {
		t.Fatalf("the shard serves %d entries after a fast-failed write", n)
	}
	for deadline := time.Now().Add(5 * time.Second); errors.Is(err, shard.ErrBreakerOpen); {
		if time.Now().After(deadline) {
			t.Fatalf("write once the disk healed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		_, err = h.Space().Write(kv{K: "logged", V: 2}, nil, tuplespace.Forever)
	}
	if err != nil {
		t.Fatalf("write once the disk healed and the cooldown passed: %v", err)
	}
	if n, err := h.Space().Count(kv{}); err != nil || n != 1 {
		t.Fatalf("count = %d, %v; want the one logged entry", n, err)
	}
}

// TestSplitRefusesStaleChildWAL: a split-born child must start empty. Its
// index — and so its WAL directory — can repeat one an earlier process used
// (this host's first split builds shard1 whatever that earlier process called
// it). At the parent commit the child recovered the directory and the stale
// entries joined the ring as if the split had migrated them.
func TestSplitRefusesStaleChildWAL(t *testing.T) {
	const entries = 24
	d := inproc(t)
	dir := t.TempDir()
	stale := filepath.Join(dir, "shard1")
	old, dur, err := space.NewLocalDurable(d.clock, space.DurableOptions{Dir: stale, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(kv{K: "stale", V: -1}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	h := d.host(t, Spec{Shards: 1, Elastic: true, DataDir: dir, FsyncPolicy: wal.FsyncNever})
	for i := 0; i < entries; i++ {
		if _, err := h.Space().Write(kv{K: fmt.Sprintf("k%02d", i), V: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	ring0, _ := h.RingID(0)
	_, err = h.Split(ring0)
	if err == nil || !strings.Contains(err.Error(), stale) {
		t.Fatalf("split over a stale child directory: err = %v, want a refusal naming %s", err, stale)
	}
	if got := h.TopologyEpoch(); got != 1 {
		t.Fatalf("topology epoch = %d after the refused split, want the ring unchanged at 1", got)
	}
	if got := typeCounts(t, h.Space())["shardhost.kv"]; got != entries {
		t.Fatalf("%d entries through the router, want the parent still serving all %d and the stale one invisible", got, entries)
	}
	if n, err := h.Space().Count(kv{K: "stale"}); err != nil || n != 0 {
		t.Fatalf("the stale entry is visible through the router: count %d, %v", n, err)
	}
	if segs, _ := filepath.Glob(filepath.Join(stale, "*")); len(segs) == 0 {
		t.Fatalf("the refusal emptied %s", stale)
	}
}

// TestDrainOutlastsClientConvergence: the lame-duck window is derived from
// the clients' watch interval, so "drain outlasts ring convergence" holds
// by definition — in the simulator and over TCP alike. Once cmd/worker
// polled every 30 s against a 10 s default drain.
func TestDrainOutlastsClientConvergence(t *testing.T) {
	if got := (Spec{}).withDefaults().drain(); got < 2*shard.DefaultWatchInterval {
		t.Fatalf("default drain = %v, want at least 2×%v", got, shard.DefaultWatchInterval)
	}
	if got := (Spec{WatchInterval: 3 * time.Second}).withDefaults().drain(); got != 6*time.Second {
		t.Fatalf("drain = %v for a 3 s watch interval, want 6 s", got)
	}
}

// TestSpecValidate is the table of specs New refuses; cmd/master's flag
// conflicts are rows here.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // "" = valid
	}{
		{"zero value", Spec{}, ""},
		{"replicated autoshard", Spec{Replicas: 1, AutoShard: true}, ""},
		{"replicas out of range", Spec{Replicas: 2}, "replicas must be 0 or 1"},
		{"negative replicas", Spec{Replicas: -1}, "replicas must be 0 or 1"},
		{"negative max-inflight", Spec{MaxInflight: -1}, "max-inflight must be >= 0"},
		{"negative failover-timeout", Spec{FailoverTimeout: -time.Second}, "failover-timeout must be >= 0"},
		{"negative reshard-interval", Spec{ReshardInterval: -time.Second}, "reshard-interval must be >= 0"},
		{"negative split threshold", Spec{SplitThreshold: -1}, "thresholds must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid spec rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if tc.want != "" {
				if _, nerr := New(vclock.NewReal(), Env{}, tc.spec); nerr == nil {
					t.Fatal("New accepted a spec Validate rejects")
				}
			}
		})
	}
}

// TestDeadWorkerTaskReturnsWithoutMaster: a worker takes the only task
// under a leased transaction and goes silent — no commit, no abort — while
// no master runs. The shard itself aborts the transaction at its deadline,
// so another client's blocking take receives the task then, not at its own
// timeout.
func TestDeadWorkerTaskReturnsWithoutMaster(t *testing.T) {
	const ttl = 8 * time.Second
	const poll = 250 * time.Millisecond // a worker's default poll
	clk := vclock.NewVirtual(time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC))
	nw := transport.NewNetwork(clk, transport.Loopback())
	env := InProcEnv(nw, "master", discovery.NewRegistry(clk))
	env.Spawn = clk.Go
	h, err := New(clk, env, Spec{Shards: 1, TxnTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	clk.Run(func() {
		a := space.NewProxy(nw.Dial("master"))
		b := space.NewProxy(nw.Dial("master"))
		if _, err := b.Write(kv{K: "task", V: 1}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		tx, err := a.BeginTxn(ttl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Take(kv{K: "task"}, tx, time.Second); err != nil {
			t.Fatal(err)
		}
		if sh := h.Health().Shards[0]; sh.TxnsLive != 1 || sh.TxnsExpired != 0 {
			t.Fatalf("healthz before the lapse: txns live %d expired %d, want 1 0", sh.TxnsLive, sh.TxnsExpired)
		}
		start := clk.Now()
		got, err := b.Take(kv{K: "task"}, nil, 10*ttl)
		if err != nil {
			t.Fatalf("take after the dead worker's lease: %v", err)
		}
		if got.(kv).V != 1 {
			t.Fatalf("took %+v", got)
		}
		if d := clk.Since(start); d > ttl+poll {
			t.Fatalf("task came back after %v, want within %v", d, ttl+poll)
		}
		if sh := h.Health().Shards[0]; sh.TxnsLive != 0 || sh.TxnsExpired != 1 {
			t.Fatalf("healthz after the lapse: txns live %d expired %d, want 0 1", sh.TxnsLive, sh.TxnsExpired)
		}
	})
}
