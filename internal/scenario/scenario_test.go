package scenario

import (
	"reflect"
	"testing"
	"time"

	"gospaces/internal/faults"
)

// TestGenerateValidAndCovering: every sampled manifest must pass
// Validate, and the grammar must actually reach each deployment shape —
// a sweep that silently collapsed to one corner would make the nightly
// soak vacuous.
func TestGenerateValidAndCovering(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		m := Generate(seed)
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid manifest: %v", seed, err)
		}
		if m.Seed != seed || m.Faults.Seed != seed {
			t.Fatalf("seed %d: manifest carries seeds %d/%d", seed, m.Seed, m.Faults.Seed)
		}
		if m.Replicas == 1 {
			shapes["replicated"]++
		}
		if m.Elastic {
			shapes["elastic"]++
		}
		if m.Durable {
			shapes["durable"]++
		}
		if m.App.Name == AppRayTrace {
			shapes["raytrace"]++
		}
		if len(m.Events) > 0 {
			shapes["events"]++
		}
		if len(m.Faults.Crashes) > 0 {
			shapes["lookup-outage"]++
		}
		if m.OpTimeout <= 0 {
			t.Errorf("seed %d: no op deadline", seed)
		}
		for _, r := range m.Faults.Rules {
			if r.Kind == faults.RuleDelay && r.Delay > m.OpTimeout {
				shapes["ambiguous-timeout"]++
				if m.Replicas == 1 {
					shapes["ambiguous-timeout-replicated"]++
				}
			}
		}
		if m.Replicas == 1 && len(m.Faults.Crashes) > 0 {
			shapes["lookup-outage-replicated"]++
		}
		if m.MaxInflight > 0 {
			shapes["overload"]++
			burst := false
			for _, ev := range m.Events {
				if ev.Kind == OverloadBurst {
					burst = true
				}
			}
			if !burst {
				t.Errorf("seed %d: overload knobs armed without an overload-burst event", seed)
			}
		}
		for _, r := range m.Faults.Rules {
			shapes[r.Kind]++
		}
	}
	for _, shape := range []string{
		"replicated", "elastic", "durable", "raytrace", "events", "lookup-outage",
		"ambiguous-timeout", "ambiguous-timeout-replicated", "lookup-outage-replicated",
		"overload",
		faults.RuleCrashOnCall, faults.RuleDelay, faults.RuleDuplicate, faults.RuleDrop,
	} {
		if shapes[shape] == 0 {
			t.Errorf("grammar never produced shape %q in 300 seeds", shape)
		}
	}
}

// TestManifestJSONRoundTrip: a manifest must survive the trip through its
// CI artifact form — the nightly workflow replays failures from exactly
// these bytes.
func TestManifestJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		m := Generate(seed)
		data, err := m.MarshalIndent()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := ParseManifest(data)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("seed %d: manifest changed across JSON round trip:\n  out: %+v\n  in:  %+v", seed, m, back)
		}
	}
}

// TestRunSeedsPassInvariants is the fixed-seed slice of the nightly soak
// that gates every PR: a handful of generated manifests across the
// deployment shapes must hold every invariant.
func TestRunSeedsPassInvariants(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		m := Generate(seed)
		if rep := Run(m); rep.Failed() {
			data, _ := m.MarshalIndent()
			t.Errorf("seed %d violated invariants: %v\nmanifest:\n%s", seed, rep.Violations, data)
		}
	}
}

// TestRunSameSeedDeterministic: one int64 must reproduce an entire run —
// the injected-fault history, the event outcomes and the verdict. This is
// what makes a logged nightly seed a complete bug report.
func TestRunSameSeedDeterministic(t *testing.T) {
	// Seed 27's manifest combines three shards, a split and a merge, worker
	// crashes and a delay rule, so the comparison spans the fault layer and
	// the control plane. The seed is chosen, not arbitrary: workers that
	// start at one virtual instant reach a shard's service gate in goroutine
	// order, and on some manifests (9 since the binary wire format changed
	// message sizes; 1, 3, 4, 24, 28 before and after) one more or one fewer
	// poll then lands inside a delay rule's stream.
	m := Generate(27)
	a, b := Run(m), Run(m)
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("same manifest, different verdicts: %v vs %v", a.Violations, b.Violations)
	}
	if !reflect.DeepEqual(a.FaultEvents, b.FaultEvents) {
		t.Errorf("same manifest, different fault histories:\n  run 1: %v\n  run 2: %v", a.FaultEvents, b.FaultEvents)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("same manifest, different event outcomes:\n  run 1: %+v\n  run 2: %+v", a.Events, b.Events)
	}
	// The virtual span is reproducible to goroutine-interleaving noise
	// (sub-microsecond poll-boundary shifts), not bit-for-bit; the replay
	// fingerprint above is the exact contract.
	if d := a.VirtualElapsed - b.VirtualElapsed; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("same manifest, virtual spans differ by %v: %s vs %s", d, a.VirtualElapsed, b.VirtualElapsed)
	}
}

// TestCorruptResultCaughtAndShrunk seeds a deliberate invariant violation
// — a forged result entry the master aggregates in place of a real one —
// and asserts the checker trips on it and the shrinker strips the decoy
// events and fault rules down to (essentially) the forgery alone.
func TestCorruptResultCaughtAndShrunk(t *testing.T) {
	m := Manifest{
		Seed:    5,
		Workers: 3,
		Shards:  1,
		TxnTTL:  8 * time.Second,
		// Work sized so the modeled execution (TotalSims/100 × Work /
		// workers = 8s) comfortably spans both forgery events.
		App: AppSpec{Name: AppMonteCarlo, Tasks: 16, Work: 3 * time.Second},
		Faults: faults.PlanSpec{
			Seed: 5,
			// Decoy rules the minimizer should discard: neither is needed
			// to reproduce the violation.
			Rules: []faults.RuleSpec{
				{Kind: faults.RuleDelay, From: "node/*", Method: "space.*", Prob: 0.1, Delay: 30 * time.Millisecond},
				{Kind: faults.RuleDuplicate, From: "node/*", To: "master*", Method: "space.Write", Prob: 0.05},
			},
		},
		Events: []Event{
			{At: 1 * time.Second, Kind: CorruptResult},
			{At: 2 * time.Second, Kind: CorruptResult},
		},
	}
	rep := Run(m)
	if !rep.Failed() {
		t.Fatal("forged results were not caught: the exactness invariant is vacuous")
	}

	min, runs := Shrink(m, 0)
	if runs == 0 {
		t.Fatal("shrinker did no work")
	}
	if !Run(min).Failed() {
		t.Fatal("minimized manifest no longer fails")
	}
	if len(min.Events) >= len(m.Events) || len(min.Faults.Rules) > 0 {
		t.Errorf("shrink left %d events and %d fault rules (from %d events, %d rules)",
			len(min.Events), len(min.Faults.Rules), len(m.Events), len(m.Faults.Rules))
	}
	found := false
	for _, ev := range min.Events {
		if ev.Kind == CorruptResult {
			found = true
		}
	}
	if !found {
		t.Errorf("minimized manifest lost the corrupt-result event: %+v", min.Events)
	}
}
