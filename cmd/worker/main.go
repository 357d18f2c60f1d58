// Command worker runs one worker node over TCP: it discovers the
// JavaSpaces service through the lookup service, downloads the worker
// program from the master's code server, serves an SNMP agent over UDP and
// the rule-base signal endpoint over TCP for the network management module,
// and registers itself with the lookup service so the manager can find it.
// All of that is internal/workerhost — the node the simulator runs
// in-process (DESIGN §15); this binary is flags over it.
//
// The node's system state is modelled by sysmon (this repository's
// simulated-cluster substitution for real host agents); the -loadsim1 and
// -loadsim2 flags start the paper's synthetic load generators locally.
//
// Usage:
//
//	worker -name node01 -lookup 127.0.0.1:7001 -job montecarlo
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"gospaces/internal/obs"
	"gospaces/internal/sysmon"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/pagerank"
	"gospaces/internal/apps/raytrace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("worker: %v", err)
	}
}

func run(args []string) error {
	var spec workerhost.Spec
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	name := fs.String("name", "node01", "worker node name")
	lookup := fs.String("lookup", "127.0.0.1:7001", "lookup service address")
	job := fs.String("job", "montecarlo", "program bundle to execute")
	sigAddr := fs.String("signal", "127.0.0.1:0", "TCP listen address for the signal endpoint")
	snmpAddr := fs.String("snmp", "127.0.0.1:0", "UDP listen address for the SNMP agent")
	speed := fs.Float64("speed", 1.0, "relative node speed (1.0 = 800 MHz reference)")
	fs.BoolVar(&spec.AutoStart, "autostart", false, "start without waiting for a rule-base Start signal")
	loadsim1 := fs.Bool("loadsim1", false, "run load simulator 1 (30-50% CPU)")
	loadsim2 := fs.Bool("loadsim2", false, "run load simulator 2 (100% CPU)")
	obsAddr := fs.String("obs", "", "serve the live ops surface (Prometheus /metrics, /debug/pprof, /tracez) on this address, e.g. :6061")
	fs.DurationVar(&spec.OpTimeout, "optimeout", 0, "per-operation deadline on space RPCs (0 = unbounded); timed-out calls fail with space.ErrOpTimeout and, against a dead shard, trigger failover resolution")
	fs.Parse(args) // ExitOnError: Parse does not return one
	if _, err := taskTemplate(*job, false); err != nil {
		return err
	}
	clk := vclock.NewReal()
	spec.Machine = sysmon.NewMachine(clk, *name, *speed)
	spec.Program = *job
	// A spread master says so on its registrations.
	spec.TaskTemplate = func(attrs map[string]string) tuplespace.Entry {
		tmpl, _ := taskTemplate(*job, attrs["spread"] == "1") // job checked above
		return tmpl
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if *obsAddr != "" {
		spec.Obs = obs.New(time.Now().UnixNano())
		closer, url, err := obs.Serve(*obsAddr, spec.Obs)
		if err != nil {
			return fmt.Errorf("ops endpoint: %w", err)
		}
		defer closer.Close()
		log.Printf("worker %s: ops surface at %s (/metrics, /debug/pprof, /tracez)", *name, url)
	}
	if *loadsim1 {
		sysmon.NewLoadSimulator1(spec.Machine).Start()
	}
	if *loadsim2 {
		sysmon.NewLoadSimulator2(spec.Machine).Start()
	}
	node, err := workerhost.New(clk, workerhost.TCPEnv(*lookup, *sigAddr, *snmpAddr), spec)
	if err != nil {
		return err
	}
	defer node.Close()
	log.Printf("worker %s: joined javaspace ring %v; signal endpoint %s, SNMP agent %s", *name, node.Ring(), node.Addr(), node.SNMPAddr())
	node.Start()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	log.Printf("worker %s: shutting down (%d tasks done, ring %v)", *name, node.Worker().Stats().TasksDone, node.Ring())
	return nil
}

// taskTemplate maps a job name to its task template; importing the app
// packages also registers their program factories with nodeconfig. In
// spread mode (montecarlo tasks keyed individually across shards) the
// template's key stays zero, so lookups scatter over the ring.
func taskTemplate(jobName string, spread bool) (tuplespace.Entry, error) {
	switch jobName {
	case montecarlo.JobName:
		if spread {
			return montecarlo.Task{}, nil
		}
		return montecarlo.Task{Job: montecarlo.JobName}, nil
	case raytrace.JobName:
		return raytrace.Task{Job: raytrace.JobName}, nil
	case pagerank.JobName:
		return pagerank.Task{Job: pagerank.JobName}, nil
	}
	return nil, fmt.Errorf("worker: unknown job %q", jobName)
}
