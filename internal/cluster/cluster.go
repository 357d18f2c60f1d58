// Package cluster assembles simulated heterogeneous clusters: an in-process
// network, the master's machine and server, and per node the hardware — a
// sysmon.Machine with a relative CPU speed, the two load simulators of the
// paper's experiments, and the address its worker node (internal/workerhost:
// signal endpoint, SNMP agent, worker module) is served at. The canned
// topologies reproduce the paper's testbeds: five 800 MHz Pentium III
// nodes, and thirteen 300 MHz nodes (the master is an 800 MHz node in both,
// §5).
package cluster

import (
	"fmt"

	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
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

// Node is one worker node's hardware and network address.
type Node struct {
	Name    string
	Machine *sysmon.Machine
	Addr    string
	Sim1    *sysmon.LoadSimulator // 30–50 % traffic-shaped load
	Sim2    *sysmon.LoadSimulator // 100 % load
}

// Cluster is an assembled simulated cluster.
type Cluster struct {
	Clock         vclock.Clock
	Net           *transport.Network
	Nodes         []*Node
	MasterMachine *sysmon.Machine
	MasterAddr    string
	MasterServer  *transport.Server
	Community     string
}

// New assembles a cluster on clock with the given network model, a
// 1.0-speed master node, and the given worker specs. Worker nodes are
// addressed "node/<name>"; the master's server is bound at "master".
func New(clock vclock.Clock, model transport.Model, specs []NodeSpec) *Cluster {
	c := &Cluster{
		Clock:         clock,
		Net:           transport.NewNetwork(clock, model),
		MasterMachine: sysmon.NewMachine(clock, "master", Speed800MHz),
		MasterAddr:    "master",
		MasterServer:  transport.NewServer(),
		Community:     "public",
	}
	c.Net.Listen(c.MasterAddr, c.MasterServer)
	for _, spec := range specs {
		c.Nodes = append(c.Nodes, c.addNode(spec))
	}
	return c
}

func (c *Cluster) addNode(spec NodeSpec) *Node {
	m := sysmon.NewMachine(c.Clock, spec.Name, spec.Speed)
	return &Node{
		Name:    spec.Name,
		Machine: m,
		Addr:    "node/" + spec.Name,
		Sim1:    sysmon.NewLoadSimulator1(m),
		Sim2:    sysmon.NewLoadSimulator2(m),
	}
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}
