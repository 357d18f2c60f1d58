package faults

import (
	"fmt"
	"time"
)

// PlanSpec is the serializable form of a Plan: everything the rule
// builders accept, as data. Scenario manifests (internal/scenario) embed
// one so a generated fault schedule can be logged, shipped as a CI
// artifact, and rebuilt bit-for-bit from JSON — Build constructs a fresh
// unbound Plan, which matters because a Plan itself drives exactly one
// run (see Bind) and cannot be reused or serialized.
type PlanSpec struct {
	Seed int64 `json:"seed"`
	// Rules are the call-triggered injections, applied in order (the
	// order is part of the schedule: decision streams are keyed by rule
	// index).
	Rules []RuleSpec `json:"rules,omitempty"`
	// Partitions are scheduled one-way cuts.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
	// Crashes are scheduled endpoint downtime windows.
	Crashes []CrashWindowSpec `json:"crashes,omitempty"`
}

// Rule kinds accepted by RuleSpec.Kind.
const (
	RuleDrop        = "drop"
	RuleDelay       = "delay"
	RuleDuplicate   = "duplicate"
	RuleCrashOnCall = "crash-on-call" // fires on the Nth matching call
	RuleCrashOnProb = "crash-on-prob" // fires with probability Prob per call
)

// RuleSpec is one call-triggered injection. From/To/Method are endpoint
// patterns ("" matches anything, trailing '*' prefix-matches).
type RuleSpec struct {
	Kind   string `json:"kind"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Method string `json:"method,omitempty"`
	// Prob triggers drop/delay/duplicate/crash-on-prob rules.
	Prob float64 `json:"prob,omitempty"`
	// Nth triggers crash-on-call rules: the stream's nth matching call.
	Nth int `json:"nth,omitempty"`
	// Delay is the added latency for delay rules.
	Delay time.Duration `json:"delay,omitempty"`
	// Point is "before" or "after" (default) for crash rules — whether the
	// endpoint dies before the handler runs or after it succeeded.
	Point string `json:"point,omitempty"`
	// Endpoint is who dies for crash rules ("" = the call's from side).
	Endpoint string `json:"endpoint,omitempty"`
	// DownFor is the crash downtime; <= 0 means forever.
	DownFor time.Duration `json:"down_for,omitempty"`
}

// PartitionSpec cuts calls From→To during [Start, End) offsets from the
// Bind epoch; End <= 0 means forever.
type PartitionSpec struct {
	From  string        `json:"from"`
	To    string        `json:"to"`
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
}

// CrashWindowSpec schedules Endpoint (pattern) down during [Start, End)
// offsets from the Bind epoch; End <= 0 means forever.
type CrashWindowSpec struct {
	Endpoint string        `json:"endpoint"`
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
}

// crashPoint maps a RuleSpec.Point string to its CrashPoint.
func crashPoint(s string) (CrashPoint, error) {
	switch s {
	case "", "after":
		return AfterHandler, nil
	case "before":
		return BeforeHandler, nil
	default:
		return 0, fmt.Errorf("faults: unknown crash point %q (want \"before\" or \"after\")", s)
	}
}

// Build constructs a fresh, unbound Plan from the spec. Call Bind on the
// result (or hand it to core.InProc, whose assembly binds it)
// before use. Building twice yields two independent plans with identical
// schedules — the replay property the scenario shrinker relies on.
func (s PlanSpec) Build() (*Plan, error) {
	p := NewPlan(s.Seed)
	for i, r := range s.Rules {
		switch r.Kind {
		case RuleDrop:
			p.DropCalls(r.From, r.To, r.Method, r.Prob)
		case RuleDelay:
			p.DelayCalls(r.From, r.To, r.Method, r.Delay, r.Prob)
		case RuleDuplicate:
			p.DuplicateCalls(r.From, r.To, r.Method, r.Prob)
		case RuleCrashOnCall:
			pt, err := crashPoint(r.Point)
			if err != nil {
				return nil, fmt.Errorf("rule %d: %w", i, err)
			}
			if r.Nth <= 0 {
				return nil, fmt.Errorf("faults: rule %d: crash-on-call needs nth >= 1, got %d", i, r.Nth)
			}
			p.CrashOnCall(r.From, r.To, r.Method, r.Nth, pt, r.Endpoint, r.DownFor)
		case RuleCrashOnProb:
			pt, err := crashPoint(r.Point)
			if err != nil {
				return nil, fmt.Errorf("rule %d: %w", i, err)
			}
			p.CrashProbOnCall(r.From, r.To, r.Method, r.Prob, pt, r.Endpoint, r.DownFor)
		default:
			return nil, fmt.Errorf("faults: rule %d: unknown kind %q", i, r.Kind)
		}
	}
	for _, pt := range s.Partitions {
		p.PartitionOneWay(pt.From, pt.To, pt.Start, pt.End)
	}
	for _, c := range s.Crashes {
		p.CrashEndpoint(c.Endpoint, c.Start, c.End)
	}
	return p, nil
}
