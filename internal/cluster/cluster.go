// Package cluster models a heterogeneous cluster's hardware: the master's
// machine and, per node, a sysmon.Machine with a relative CPU speed and the
// two load simulators of the paper's experiments. Which network the nodes
// are on is internal/core's (core.Net). The canned topologies reproduce the
// paper's testbeds: five 800 MHz Pentium III nodes, and thirteen 300 MHz
// nodes (the master is an 800 MHz node in both, §5).
package cluster

import (
	"fmt"

	"gospaces/internal/sysmon"
	"gospaces/internal/vclock"
)

// NodeSpec declares one worker node.
type NodeSpec struct {
	Name  string
	Speed float64 // relative to the 800 MHz reference node
}

// Speeds of the paper's two node classes, relative to the 800 MHz P-III.
const (
	Speed800MHz = 1.0
	Speed300MHz = 300.0 / 800.0
)

// FivePC returns the paper's 5-node 800 MHz cluster.
func FivePC() []NodeSpec { return Uniform(5, Speed800MHz) }

// ThirteenPC returns the paper's 13-node 300 MHz cluster.
func ThirteenPC() []NodeSpec { return Uniform(13, Speed300MHz) }

// Uniform returns n identical nodes at the given speed.
func Uniform(n int, speed float64) []NodeSpec {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Name: fmt.Sprintf("node%02d", i+1), Speed: speed}
	}
	return specs
}

// Node is one worker node's hardware.
type Node struct {
	Name    string
	Machine *sysmon.Machine
	Sim1    *sysmon.LoadSimulator // 30–50 % traffic-shaped load
	Sim2    *sysmon.LoadSimulator // 100 % load
}

// Cluster is an assembled simulated cluster.
type Cluster struct {
	Nodes         []*Node
	MasterMachine *sysmon.Machine
}

// New assembles a cluster on clock: a 1.0-speed master machine and the
// given worker specs.
func New(clock vclock.Clock, specs []NodeSpec) *Cluster {
	c := &Cluster{MasterMachine: sysmon.NewMachine(clock, "master", Speed800MHz)}
	for _, spec := range specs {
		c.Nodes = append(c.Nodes, addNode(clock, spec))
	}
	return c
}

func addNode(clock vclock.Clock, spec NodeSpec) *Node {
	m := sysmon.NewMachine(clock, spec.Name, spec.Speed)
	return &Node{
		Name:    spec.Name,
		Machine: m,
		Sim1:    sysmon.NewLoadSimulator1(m),
		Sim2:    sysmon.NewLoadSimulator2(m),
	}
}
