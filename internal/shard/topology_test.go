package shard

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/space"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

func TestSplitLabelsPartitionsEvenly(t *testing.T) {
	labels := DefaultLabels("shard-0", 64)
	keep, give := SplitLabels(labels)
	if len(keep)+len(give) != len(labels) {
		t.Fatalf("partition sizes %d+%d != %d", len(keep), len(give), len(labels))
	}
	if len(keep) == 0 || len(give) == 0 {
		t.Fatalf("degenerate split: keep=%d give=%d", len(keep), len(give))
	}
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		seen[l] = true
	}
	both := append(append([]string(nil), keep...), give...)
	for _, l := range both {
		if !seen[l] {
			t.Fatalf("label %q not from the input set", l)
		}
		delete(seen, l)
	}
	if len(seen) != 0 {
		t.Fatalf("labels lost in split: %v", seen)
	}
	// Deterministic: the same input always splits the same way, so every
	// participant that computes the split agrees on ownership.
	k2, g2 := SplitLabels(labels)
	for i := range keep {
		if keep[i] != k2[i] {
			t.Fatalf("split not deterministic at keep[%d]", i)
		}
	}
	for i := range give {
		if give[i] != g2[i] {
			t.Fatalf("split not deterministic at give[%d]", i)
		}
	}
}

func TestRingFractionsSumToOne(t *testing.T) {
	labels := map[string][]string{
		"a": DefaultLabels("a", 64),
		"b": DefaultLabels("b", 64),
	}
	keep, give := SplitLabels(labels["b"])
	labels["b"] = keep
	labels["c"] = give
	r := newRingLabels([]string{"a", "b", "c"}, labels)
	fr := r.fractions()
	sum := 0.0
	for id, f := range fr {
		if f <= 0 || f >= 1 {
			t.Fatalf("fraction[%s] = %v, want in (0,1)", id, f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v, want 1", sum)
	}
	// b and c split b's old arc between them, so together they should own
	// roughly what one default member owns in a 2-ring — and alternating
	// even/odd points keeps each side a real share, not a sliver.
	if fr["b"] < 0.05 || fr["c"] < 0.05 {
		t.Fatalf("split shares too small: b=%.3f c=%.3f", fr["b"], fr["c"])
	}
}

// topoRouter builds a 2-member router whose members carry default labels,
// as the elastic master seeds it (topology epoch 1).
func topoRouter(t *testing.T, clk vclock.Clock) (*Router, []*space.Local) {
	t.Helper()
	r, locals := newLocalRouter(t, clk, 2)
	seed := r.Topology()
	seed.Epoch = 1
	if ok, err := r.ApplyTopology(seed, nil); err != nil || !ok {
		t.Fatalf("seed topology: ok=%v err=%v", ok, err)
	}
	return r, locals
}

func TestApplyTopologyRejectsStaleAndEmpty(t *testing.T) {
	clk := vclock.NewReal()
	r, _ := topoRouter(t, clk)
	cur := r.Topology()
	if ok, err := r.ApplyTopology(cur, nil); ok || err != nil {
		t.Fatalf("same-epoch topology: ok=%v err=%v, want rejected silently", ok, err)
	}
	if ok, err := r.ApplyTopology(Topology{Epoch: cur.Epoch + 1}, nil); ok || err == nil {
		t.Fatalf("empty topology: ok=%v err=%v, want error", ok, err)
	}
	if got := r.TopoEpoch(); got != cur.Epoch {
		t.Fatalf("TopoEpoch = %d after rejected applies, want %d", got, cur.Epoch)
	}
}

func TestApplyTopologySplitThenMerge(t *testing.T) {
	clk := vclock.NewReal()
	r, _ := topoRouter(t, clk)
	cur := r.Topology()

	// Split shard-0: half its labels move to a new member.
	next := Topology{Epoch: cur.Epoch + 1}
	var give []string
	for _, m := range cur.Members {
		if m.ID == "shard-0" {
			var keep []string
			keep, give = SplitLabels(m.Labels)
			m.Labels = keep
		}
		next.Members = append(next.Members, m)
	}
	next.Members = append(next.Members, TopoMember{ID: "shard-2", Labels: give})
	child := space.NewLocal(clk)
	resolved := 0
	ok, err := r.ApplyTopology(next, func(ring string) (Shard, error) {
		resolved++
		if ring != "shard-2" {
			t.Fatalf("resolve called for %q", ring)
		}
		return Shard{ID: ring, Space: child}, nil
	})
	if err != nil || !ok {
		t.Fatalf("split apply: ok=%v err=%v", ok, err)
	}
	if resolved != 1 {
		t.Fatalf("resolve called %d times, want 1 (existing handles must be reused)", resolved)
	}
	if r.NumShards() != 3 {
		t.Fatalf("NumShards = %d after split, want 3", r.NumShards())
	}
	own := r.Ownership()
	if own["shard-2"] <= 0 {
		t.Fatalf("split-born member owns %v of the ring", own["shard-2"])
	}

	// Merge it back: the member disappears and its labels return.
	merged := Topology{Epoch: next.Epoch + 1}
	for _, m := range next.Members {
		if m.ID == "shard-2" {
			continue
		}
		if m.ID == "shard-0" {
			m.Labels = append(append([]string(nil), m.Labels...), give...)
		}
		merged.Members = append(merged.Members, m)
	}
	if ok, err := r.ApplyTopology(merged, nil); err != nil || !ok {
		t.Fatalf("merge apply: ok=%v err=%v", ok, err)
	}
	if r.NumShards() != 2 {
		t.Fatalf("NumShards = %d after merge, want 2", r.NumShards())
	}
	if own := r.Ownership(); own["shard-2"] != 0 {
		t.Fatalf("merged-away member still owns %v", own["shard-2"])
	}
}

// TestApplyTopologyKeepsNewerFailoverHandle: a failover retarget that
// raced ahead of the topology must survive the apply — per-member epochs
// only ratchet up.
func TestApplyTopologyKeepsNewerFailoverHandle(t *testing.T) {
	clk := vclock.NewReal()
	r, _ := topoRouter(t, clk)
	promoted := space.NewLocal(clk)
	if err := r.Retarget("shard-1", promoted, 7); err != nil {
		t.Fatal(err)
	}
	cur := r.Topology()
	next := Topology{Epoch: cur.Epoch + 1}
	for _, m := range cur.Members {
		if m.ID == "shard-1" {
			m.Epoch = 3 // topology snapshot predates the failover
		}
		next.Members = append(next.Members, m)
	}
	if ok, err := r.ApplyTopology(next, func(ring string) (Shard, error) {
		t.Fatalf("resolve called for %q; the newer live handle must be kept", ring)
		return Shard{}, nil
	}); err != nil || !ok {
		t.Fatalf("apply: ok=%v err=%v", ok, err)
	}
	if got := epochs(r)["shard-1"]; got != 7 {
		t.Fatalf("shard-1 epoch = %d after apply, want 7 (failover epoch preserved)", got)
	}
}

// TestMergeDuringBlockingScatter: a merge that shrinks the ring below
// the scatter's entry-time fanout while a blocking zero-key Take is
// parked must not crash the round workers (regression: an empty strided
// chunk divided by zero picking its park target). The take still
// completes against the surviving member.
func TestMergeDuringBlockingScatter(t *testing.T) {
	clk := vclock.NewReal()
	r, locals := topoRouter(t, clk) // 2 members, default fanout clamps to 2
	cur := r.Topology()

	done := make(chan error, 1)
	go func() {
		_, err := r.Take(blob{}, nil, 5*time.Second) // zero key: scatter
		done <- err
	}()
	time.Sleep(60 * time.Millisecond) // let a round park across both members

	// Merge shard-1 away: shard-0 absorbs its labels, ring size 2 → 1.
	merged := Topology{Epoch: cur.Epoch + 1}
	for _, m := range cur.Members {
		if m.ID == "shard-1" {
			continue
		}
		for _, n := range cur.Members {
			if n.ID == "shard-1" {
				m.Labels = append(append([]string(nil), m.Labels...), n.Labels...)
			}
		}
		merged.Members = append(merged.Members, m)
	}
	if ok, err := r.ApplyTopology(merged, nil); err != nil || !ok {
		t.Fatalf("merge apply: ok=%v err=%v", ok, err)
	}
	time.Sleep(120 * time.Millisecond) // at least one round against the 1-ring

	if _, err := locals[0].TS.Write(blob{Val: 42}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("scatter take after merge: %v", err)
	}
}

// TestWatcherFollowsTopology: a published topology record retargets a
// worker's router on the next poll, and once a topology governs the ring
// the legacy add-only discovery path stays out of the way.
func TestWatcherFollowsTopology(t *testing.T) {
	clk := vclock.NewReal()
	reg, client := newTestLookup(t, clk)
	spaces := map[string]*space.Local{
		"space.0": space.NewLocal(clk),
		"space.1": space.NewLocal(clk),
	}
	dial := func(addr string) (space.Space, error) {
		sp, ok := spaces[addr]
		if !ok {
			return nil, fmt.Errorf("no such space %q", addr)
		}
		return sp, nil
	}
	reg.Register(discovery.ServiceItem{Name: "s0", Address: "space.0",
		Attributes: map[string]string{"type": "javaspace", AttrShard: "0"}}, 0)
	r, err := New(Options{Clock: clk}, discover(t, client, dial))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(client, clk, r, Resolver(client, dial), 10*time.Millisecond)
	go w.Run()
	defer w.Stop()

	// The master splits space.0 and publishes topology epoch 2 plus the
	// child's registration.
	keep, give := SplitLabels(DefaultLabels("space.0", 64))
	topo := Topology{Epoch: 2, Members: []TopoMember{
		{ID: "space.0", Labels: keep},
		{ID: "space.1", Labels: give},
	}}
	enc, err := EncodeTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(discovery.ServiceItem{Name: "topology", Address: "master",
		Attributes: map[string]string{"type": TopoType, AttrTopo: enc, AttrTopoEpoch: "2"}}, 0)
	reg.Register(discovery.ServiceItem{Name: "s1", Address: "space.1",
		Attributes: map[string]string{"type": "javaspace", AttrShard: "1"}}, 0)

	waitFor(t, "watcher to adopt the topology", func() bool { return r.TopoEpoch() == 2 })
	if err := w.Err(); err != nil {
		t.Fatalf("watcher error: %v", err)
	}
	if r.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", r.NumShards())
	}
	// Ownership must mirror the published labels, not default placement:
	// space.1 owns exactly the arcs of the labels it was given.
	own := r.Ownership()
	want := newRingLabels([]string{"space.0", "space.1"},
		map[string][]string{"space.0": keep, "space.1": give}).fractions()
	for id, f := range want {
		got := own[id]
		if got < f-1e-9 || got > f+1e-9 {
			t.Fatalf("ownership[%s] = %v, want %v (topology labels must govern)", id, got, f)
		}
	}
	// A stray javaspace registration must not rejoin the ring via the
	// legacy add-only path while a topology governs membership.
	reg.Register(discovery.ServiceItem{Name: "sx", Address: "space.x",
		Attributes: map[string]string{"type": "javaspace", AttrShard: "2"}}, 0)
	time.Sleep(50 * time.Millisecond)
	if r.NumShards() != 2 {
		t.Fatalf("legacy path added a member: NumShards = %d, want 2", r.NumShards())
	}
}

// TestReshardEpochMonotonicityProperty is the satellite property test:
// concurrent split, merge, and failover retargets race on one router, and
// the topology epoch plus every surviving member's replication epoch must
// only ever ratchet up, converging to the newest published state. Seeded
// and replayable: set RESHARD_SEED to reproduce a failure.
func TestReshardEpochMonotonicityProperty(t *testing.T) {
	seed := int64(20260807)
	if s := os.Getenv("RESHARD_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad RESHARD_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed %d (set RESHARD_SEED to replay)", seed)
	rng := rand.New(rand.NewSource(seed))

	clk := vclock.NewReal()
	r, _ := topoRouter(t, clk)

	// Script a legal history: alternating splits and merges of shard-0's
	// label set producing topologies at epochs 2..N, plus failover epochs
	// for both base members. Goroutines then apply a shuffled interleaving.
	base := r.Topology()
	topos := []Topology{}
	cur := base
	childOn := false
	var give []string
	for e := base.Epoch + 1; e <= base.Epoch+12; e++ {
		next := Topology{Epoch: e}
		if !childOn {
			for _, m := range cur.Members {
				if m.ID == "shard-0" {
					var keep []string
					keep, give = SplitLabels(m.Labels)
					m.Labels = keep
				}
				next.Members = append(next.Members, m)
			}
			next.Members = append(next.Members, TopoMember{ID: "child", Labels: give})
		} else {
			for _, m := range cur.Members {
				if m.ID == "child" {
					continue
				}
				if m.ID == "shard-0" {
					m.Labels = append(append([]string(nil), m.Labels...), give...)
				}
				next.Members = append(next.Members, m)
			}
		}
		childOn = !childOn
		topos = append(topos, next)
		cur = next
	}
	maxEpoch := topos[len(topos)-1].Epoch

	type job struct {
		topo     *Topology
		retarget string
		epoch    uint64
	}
	var jobs []job
	for i := range topos {
		jobs = append(jobs, job{topo: &topos[i]})
	}
	for e := uint64(2); e <= 9; e++ {
		jobs = append(jobs, job{retarget: "shard-0", epoch: e})
		jobs = append(jobs, job{retarget: "shard-1", epoch: e})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	childSpace := space.NewLocal(clk)
	resolve := func(ring string) (Shard, error) {
		return Shard{ID: ring, Space: childSpace}, nil
	}

	// Sampler: topology epoch and member epochs must never step backwards.
	stop := make(chan struct{})
	var monMu sync.Mutex
	var monErr error
	go func() {
		lastTopo := uint64(0)
		lastEpochs := map[string]uint64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			te := r.TopoEpoch()
			eps := epochs(r)
			monMu.Lock()
			if te < lastTopo {
				monErr = fmt.Errorf("topology epoch went backwards: %d then %d", lastTopo, te)
			}
			for id, e := range eps {
				if prev, ok := lastEpochs[id]; ok && e < prev {
					monErr = fmt.Errorf("member %s epoch went backwards: %d then %d", id, prev, e)
				}
			}
			monMu.Unlock()
			lastTopo = te
			lastEpochs = eps
		}
	}()

	var wg sync.WaitGroup
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			if j.topo != nil {
				if _, err := r.ApplyTopology(*j.topo, resolve); err != nil {
					t.Errorf("apply epoch %d: %v", j.topo.Epoch, err)
				}
				return
			}
			// Failover retargets racing the reshards; stale epochs are
			// rejected by design, losing the race to a merge that removed
			// the member is fine too.
			_ = r.Retarget(j.retarget, space.NewLocal(clk), j.epoch)
		}()
	}
	wg.Wait()
	close(stop)

	monMu.Lock()
	err := monErr
	monMu.Unlock()
	if err != nil {
		t.Fatalf("monotonicity violated (seed %d): %v", seed, err)
	}
	// Convergence: whatever interleaving ran, the newest topology governs.
	if got := r.TopoEpoch(); got != maxEpoch {
		t.Fatalf("final topology epoch = %d, want %d (seed %d)", got, maxEpoch, seed)
	}
	final := topos[len(topos)-1]
	if r.NumShards() != len(final.Members) {
		t.Fatalf("final NumShards = %d, want %d (seed %d)", r.NumShards(), len(final.Members), seed)
	}
	eps := epochs(r)
	for id, e := range eps {
		if id == "shard-0" || id == "shard-1" {
			if e < 9 {
				t.Fatalf("member %s converged at epoch %d, want ≥ 9 — a failover retarget was lost (seed %d)", id, e, seed)
			}
		}
	}
}

// TestApplyTopologyRefusesMalformed: a topology that names a member twice
// or gives one label to two members is refused, and the view stays where
// it was. Kept, the router would list the member twice in Topology() and
// keep only one copy's labels.
func TestApplyTopologyRefusesMalformed(t *testing.T) {
	a, b := DefaultLabels("shard-0", 64), DefaultLabels("shard-1", 64)
	for _, tc := range []struct {
		name    string
		members []TopoMember
	}{
		{"member named twice", []TopoMember{{ID: "shard-0", Labels: a[:32]}, {ID: "shard-0", Labels: a[32:]}, {ID: "shard-1", Labels: b}}},
		{"label given to two members", []TopoMember{{ID: "shard-0", Labels: a}, {ID: "shard-1", Labels: append([]string{a[0]}, b...)}}},
		{"label given twice to one member", []TopoMember{{ID: "shard-0", Labels: append([]string{a[0]}, a...)}, {ID: "shard-1", Labels: b}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := topoRouter(t, vclock.NewReal())
			before := r.Topology()
			next := Topology{Epoch: before.Epoch + 1, Members: tc.members}
			if ok, err := r.ApplyTopology(next, nil); ok || err == nil {
				t.Fatalf("ApplyTopology: ok=%v err=%v, want an error", ok, err)
			}
			if after := r.Topology(); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused topology moved the view:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// FuzzDecodeTopology feeds an arbitrary topology attribute through
// decode and apply, as a watcher does. Neither may panic, and a topology
// the router accepts comes back from Router.Topology() with the same epoch,
// members and labels. The seed corpus is testdata/fuzz/FuzzDecodeTopology.
func FuzzDecodeTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, attr string) {
		topo, err := DecodeTopology(attr)
		if err != nil {
			return
		}
		r, locals := newLocalRouter(t, vclock.NewReal(), 1)
		resolve := func(id string) (Shard, error) { return Shard{ID: id, Space: locals[0], Epoch: 1}, nil }
		if ok, err := r.ApplyTopology(topo, resolve); !ok || err != nil {
			return
		}
		got := r.Topology()
		if got.Epoch != topo.Epoch || len(got.Members) != len(topo.Members) {
			t.Fatalf("applied epoch %d with %d members, the router reports epoch %d with %d", topo.Epoch, len(topo.Members), got.Epoch, len(got.Members))
		}
		want := append([]TopoMember(nil), topo.Members...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		for i, m := range got.Members {
			if m.ID != want[i].ID || !reflect.DeepEqual(m.Labels, want[i].Labels) {
				t.Fatalf("applied member %q with labels %q, the router reports %q with %q", want[i].ID, want[i].Labels, m.ID, m.Labels)
			}
		}
	})
}
