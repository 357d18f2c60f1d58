package faults

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// TestPlanSpecBuildMatchesBuilders: a spec-built plan must inject the
// exact schedule the equivalent builder-configured plan does — Build is
// the manifest replay path, so any drift breaks failure reproduction.
func TestPlanSpecBuildMatchesBuilders(t *testing.T) {
	spec := PlanSpec{
		Seed: 42,
		Rules: []RuleSpec{
			{Kind: RuleDrop, From: "node/*", To: "master", Method: "space.Write", Prob: 0.3},
			{Kind: RuleCrashOnCall, From: "node/*", Method: "space.Take*", Nth: 2, Point: "after", DownFor: 10 * time.Second},
		},
		Crashes: []CrashWindowSpec{{Endpoint: "lookup", Start: 0, End: 2 * time.Second}},
	}

	handConfigured := func() *Plan {
		p := NewPlan(42)
		p.DropCalls("node/*", "master", "space.Write", 0.3)
		p.CrashOnCall("node/*", "", "space.Take*", 2, AfterHandler, "", 10*time.Second)
		p.CrashEndpoint("lookup", 0, 2*time.Second)
		return p
	}

	history := func(p *Plan) []string {
		clk := vclock.NewVirtual(time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC))
		p.Bind(clk)
		var got []string
		clk.Run(func() {
			clk.Sleep(3 * time.Second) // past the lookup crash window
			for i := 0; i < 40; i++ {
				_, err := p.intercept("node/node01", "master", "space.Write", ok)
				got = append(got, errKind(err))
				_, err = p.intercept("node/node01", "master.shard1", "space.Take", ok)
				got = append(got, errKind(err))
			}
		})
		return got
	}

	built, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a, b := history(built), history(handConfigured())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("spec-built plan diverged from builder-configured plan:\n spec: %v\n hand: %v", a, b)
	}
}

// TestPlanSpecJSONRoundTrip: manifests persist specs as JSON artifacts;
// the decode must reproduce the schedule-defining fields exactly.
func TestPlanSpecJSONRoundTrip(t *testing.T) {
	spec := PlanSpec{
		Seed: 7,
		Rules: []RuleSpec{
			{Kind: RuleDelay, From: "a", To: "b", Method: "m", Prob: 0.5, Delay: 250 * time.Millisecond},
			{Kind: RuleCrashOnProb, From: "node/*", Prob: 0.1, Point: "before", DownFor: 5 * time.Second},
		},
		Partitions: []PartitionSpec{{From: "x", To: "y", Start: time.Second, End: 3 * time.Second}},
		Crashes:    []CrashWindowSpec{{Endpoint: "lookup", End: 2 * time.Second}},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got PlanSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Fatalf("round trip changed the spec:\n  in:  %+v\n  out: %+v", spec, got)
	}
	if _, err := got.Build(); err != nil {
		t.Fatalf("Build after round trip: %v", err)
	}
}

// TestPlanSpecBuildRejectsBadRules: a corrupted artifact should fail
// loudly at Build, not silently skip rules.
func TestPlanSpecBuildRejectsBadRules(t *testing.T) {
	cases := []PlanSpec{
		{Rules: []RuleSpec{{Kind: "explode"}}},
		{Rules: []RuleSpec{{Kind: RuleCrashOnCall, Nth: 0}}},
		{Rules: []RuleSpec{{Kind: RuleCrashOnCall, Nth: 1, Point: "sideways"}}},
	}
	for i, spec := range cases {
		if _, err := spec.Build(); err == nil {
			t.Errorf("case %d: Build accepted invalid spec %+v", i, spec)
		}
	}
}

// TestPlanRebindPanics: a Plan drives exactly one run. Rebinding restamps
// the window epoch and races in-flight decisions, so it must fail loudly
// instead of corrupting the schedule.
func TestPlanRebindPanics(t *testing.T) {
	p := NewPlan(1)
	p.Bind(vclock.NewReal())
	defer func() {
		if recover() == nil {
			t.Fatal("second Bind did not panic")
		}
	}()
	p.Bind(vclock.NewReal())
}

// TestPlanConcurrentStreamsDeterministic drives two distinct endpoint-pair
// decision streams from two goroutines. Because streams are keyed by
// (rule, from, to) with their own counters, each caller's injected
// schedule must be identical across same-seed runs no matter how the
// goroutines interleave — the property that lets the scenario runner use
// one shared plan for a whole simulated cluster.
func TestPlanConcurrentStreamsDeterministic(t *testing.T) {
	const calls = 200
	run := func() (a, b []string) {
		p := NewPlan(99)
		p.DropCalls("node/*", "master", "space.Write", 0.4)
		p.Bind(vclock.NewReal())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				_, err := p.intercept("node/node01", "master", "space.Write", ok)
				a = append(a, errKind(err))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				_, err := p.intercept("node/node02", "master", "space.Write", ok)
				b = append(b, errKind(err))
			}
		}()
		wg.Wait()
		return a, b
	}
	a1, b1 := run()
	a2, b2 := run()
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("same seed produced different per-stream schedules under concurrency")
	}
	drops := 0
	for _, k := range a1 {
		if k == "drop" {
			drops++
		}
	}
	if drops == 0 || drops == calls {
		t.Fatalf("stream A dropped %d/%d calls; determinism check is vacuous", drops, calls)
	}
}

func ok() (interface{}, error) { return nil, nil }

func errKind(err error) string {
	if err == nil {
		return "ok"
	}
	if fe, isInjected := err.(*Error); isInjected {
		return fe.Kind
	}
	return "err"
}

// FuzzPlanSpec feeds arbitrary JSON through PlanSpec.Build, the one decoder
// of configuration bytes a scenario run replays: Build never panics, fails
// twice alike or not at all, and two plans built from one spec inject the
// same schedule. The corpus starts from the fault plans of the fixed-seed
// manifests CI runs (seeds 42–44, testdata/fuzz/FuzzPlanSpec).
func FuzzPlanSpec(f *testing.F) {
	f.Add([]byte(`{"seed":1}`))
	f.Add([]byte(`{"seed":7,"rules":[{"kind":"crash-on-prob","from":"node/*","prob":0.5,"point":"before","down_for":5000000000}],` +
		`"partitions":[{"from":"x","to":"y*","start":1000000000,"end":3000000000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec PlanSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		a, errA := spec.Build()
		b, errB := spec.Build()
		if errA != nil || errB != nil {
			if errA == nil || errB == nil || errA.Error() != errB.Error() {
				t.Fatalf("two builds of %s failed with %v and %v", data, errA, errB)
			}
			return
		}
		if sa, sb := schedule(spec, a), schedule(spec, b); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("two builds of %s injected\n %v\n %v", data, sa, sb)
		}
	})
}

// schedule binds p, built from spec, to a virtual clock and returns what
// it injects into a fixed run of calls: at the start and at each scripted
// window's edges, a few calls between every pair of the spec's own
// endpoints for each of its methods, a pattern's '*' (or an empty one)
// read as some name.
func schedule(spec PlanSpec, p *Plan) []string {
	var names, methods []string
	add := func(to *[]string, pat string, max int) {
		name := pat
		if pat == "" || strings.HasSuffix(pat, "*") {
			name = strings.TrimSuffix(pat, "*") + "x"
		}
		if len(*to) < max && !slices.Contains(*to, name) {
			*to = append(*to, name)
		}
	}
	add(&names, "", 4)
	add(&methods, "", 3)
	instants := []time.Duration{0}
	for _, r := range spec.Rules {
		add(&names, r.From, 4)
		add(&names, r.To, 4)
		add(&names, r.Endpoint, 4)
		add(&methods, r.Method, 3)
	}
	for _, pt := range spec.Partitions {
		add(&names, pt.From, 4)
		add(&names, pt.To, 4)
		instants = append(instants, pt.Start, pt.End)
	}
	for _, c := range spec.Crashes {
		add(&names, c.Endpoint, 4)
		instants = append(instants, c.Start, c.End)
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i] < instants[j] })
	if len(instants) > 4 {
		instants = instants[:4]
	}

	clk := vclock.NewVirtual(time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC))
	p.Bind(clk)
	var got []string
	clk.Run(func() {
		start := clk.Now()
		for _, at := range instants {
			if d := at - clk.Now().Sub(start); d > 0 {
				clk.Sleep(d)
			}
			for _, from := range names {
				for _, to := range names {
					for _, m := range methods {
						for i := 0; i < 2; i++ {
							_, err := p.intercept(from, to, m, ok)
							got = append(got, errKind(err))
						}
					}
				}
			}
		}
	})
	return append(got, fmt.Sprint(p.Counters().Snapshot()))
}
