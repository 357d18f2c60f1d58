package cluster

import (
	"testing"
	"time"

	"gospaces/internal/vclock"
)

func TestCannedTopologies(t *testing.T) {
	five := FivePC()
	if len(five) != 5 || five[0].Speed != Speed800MHz {
		t.Fatalf("FivePC = %+v", five)
	}
	thirteen := ThirteenPC()
	if len(thirteen) != 13 || thirteen[12].Speed != Speed300MHz {
		t.Fatalf("ThirteenPC = %+v", thirteen)
	}
	names := map[string]bool{}
	for _, s := range thirteen {
		if names[s.Name] {
			t.Fatalf("duplicate node name %s", s.Name)
		}
		names[s.Name] = true
	}
}

func TestClusterAssembly(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	c := New(clk, Uniform(3, 0.5))
	if len(c.Nodes) != 3 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	if c.MasterMachine.Speed() != Speed800MHz {
		t.Fatalf("master speed %v", c.MasterMachine.Speed())
	}
	for _, n := range c.Nodes {
		if n.Machine.Speed() != 0.5 {
			t.Fatalf("%s speed %v", n.Name, n.Machine.Speed())
		}
		if n.Sim1 == nil || n.Sim2 == nil {
			t.Fatalf("%s missing load simulators", n.Name)
		}
	}
}
