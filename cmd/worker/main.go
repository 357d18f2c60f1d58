// Command worker runs one worker node over TCP: it discovers the
// JavaSpaces service through the lookup service, downloads the worker
// program from the master's code server, serves an SNMP agent over UDP
// for the network management module, exposes the rule-base signal
// endpoint, and registers itself with the lookup service so the network
// manager can find it.
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
	"strconv"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/metrics"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/shard"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/pagerank"
	"gospaces/internal/apps/raytrace"
)

// config is the parsed command line.
type config struct {
	name, lookup, job  string
	sigAddr, snmpAddr  string
	speed              float64
	autostart          bool
	loadsim1, loadsim2 bool
	obsAddr            string
	opTimeout          time.Duration
	exactlyOnce        bool
	retryBudget        int
}

func main() {
	var c config
	flag.StringVar(&c.name, "name", "node01", "worker node name")
	flag.StringVar(&c.lookup, "lookup", "127.0.0.1:7001", "lookup service address")
	flag.StringVar(&c.job, "job", "montecarlo", "program bundle to execute")
	flag.StringVar(&c.sigAddr, "signal", "127.0.0.1:0", "TCP listen address for the signal endpoint")
	flag.StringVar(&c.snmpAddr, "snmp", "127.0.0.1:0", "UDP listen address for the SNMP agent")
	flag.Float64Var(&c.speed, "speed", 1.0, "relative node speed (1.0 = 800 MHz reference)")
	flag.BoolVar(&c.autostart, "autostart", false, "start without waiting for a rule-base Start signal")
	flag.BoolVar(&c.loadsim1, "loadsim1", false, "run load simulator 1 (30-50% CPU)")
	flag.BoolVar(&c.loadsim2, "loadsim2", false, "run load simulator 2 (100% CPU)")
	flag.StringVar(&c.obsAddr, "obs", "", "serve the live ops surface (Prometheus /metrics, /debug/pprof, /tracez) on this address, e.g. :6061")
	flag.DurationVar(&c.opTimeout, "optimeout", 0, "per-operation deadline on space RPCs (0 = unbounded); timed-out calls fail with space.ErrOpTimeout and, against a dead shard, trigger failover resolution")
	flag.BoolVar(&c.exactlyOnce, "exactly-once", false, "mint an idempotency token per mutation and retry ambiguous op timeouts with it; the master must run with -exactly-once too so shards memoize tokened outcomes")
	flag.IntVar(&c.retryBudget, "retry-budget", 0, "token-bucket cap on this worker's total retry volume, refilled by successes; an empty bucket surfaces the last error instead of retrying (0 = unlimited)")
	flag.Parse()
	if err := run(c); err != nil {
		log.Fatalf("worker: %v", err)
	}
}

func run(c config) error {
	name, jobName, opTimeout := c.name, c.job, c.opTimeout
	tmpl, err := taskTemplate(jobName, false)
	if err != nil {
		return err
	}
	clk := vclock.NewReal()
	var o *obs.Obs
	if c.obsAddr != "" {
		o = obs.New(time.Now().UnixNano())
		closer, url, err := obs.Serve(c.obsAddr, o)
		if err != nil {
			return fmt.Errorf("ops endpoint: %w", err)
		}
		defer closer.Close()
		log.Printf("worker %s: ops surface at %s (/metrics, /debug/pprof, /tracez)", name, url)
		o.Fl().Record(clk, obs.FlightEvent{Node: name, Kind: obs.EventNodeStart, Detail: "worker"})
	}
	machine := sysmon.NewMachine(clk, name, c.speed)
	if c.loadsim1 {
		sysmon.NewLoadSimulator1(machine).Start()
	}
	if c.loadsim2 {
		sysmon.NewLoadSimulator2(machine).Start()
	}

	// Discover the space through the lookup service. A single
	// registration is the classic deployment; a sharded master registers
	// every shard with its index, and the worker waits for the full set
	// and routes through the same consistent-hash ring.
	lc, err := transport.DialTCP(c.lookup)
	if err != nil {
		return err
	}
	defer lc.Close()
	client := discovery.NewClient(lc)
	spaceTmpl := map[string]string{"type": "javaspace"}
	item, err := client.Await(spaceTmpl, 30, func() { clk.Sleep(time.Second) })
	if err != nil {
		return err
	}
	if item.Attributes["spread"] == "1" {
		tmpl, err = taskTemplate(jobName, true)
		if err != nil {
			return err
		}
	}
	want := 1
	if n, err := strconv.Atoi(item.Attributes[shard.AttrShards]); err == nil && n > 1 {
		want = n
	}
	for attempt := 0; ; attempt++ {
		items, err := client.Lookup(spaceTmpl)
		if err == nil && len(items) >= want {
			break
		}
		if attempt >= 30 {
			return fmt.Errorf("worker: only %d of %d space shards registered", len(items), want)
		}
		clk.Sleep(time.Second)
	}
	dial := func(addr string) (space.Space, error) {
		p, err := space.Dial(addr)
		if err != nil {
			return nil, err
		}
		if opTimeout > 0 {
			p = p.WithOpTimeout(clk, opTimeout)
		}
		return p, nil
	}
	shards, err := shard.Discover(client, spaceTmpl, dial)
	if err != nil {
		return err
	}
	// A replicated master's registrations carry a ring epoch; route through
	// the ring even for a single shard so a failed call can resolve the
	// promoted standby through the lookup service and retry.
	replicated := item.Attributes[shard.AttrEpoch] != ""
	var sp space.Space
	if len(shards) == 1 && !replicated && !c.exactlyOnce {
		sp = shards[0].Space
		log.Printf("worker %s: found javaspace at %s", name, shards[0].ID)
	} else {
		// Exactly-once also forces the router: the token minting and retry
		// machinery live there.
		a := shard.Assembly{
			Clock: clk, Seed: name, ExactlyOnce: c.exactlyOnce, Obs: o,
			Counters: o.Ctr(), RetryBudget: c.retryBudget,
		}
		if replicated {
			a.Failover = shard.Resolver(client, spaceTmpl, dial)
		}
		router, err := shard.Assemble(a, shards)
		if err != nil {
			return err
		}
		sp = router
		// Pick up shards added between jobs.
		watcher := shard.NewWatcher(client, clk, router, spaceTmpl, dial, 30*time.Second)
		go watcher.Run()
		defer watcher.Stop()
		log.Printf("worker %s: found %d javaspace shards (ring root %s, replicated=%v)", name, len(shards), shards[0].ID, replicated)
	}

	// The code server shares shard 0's listener (the master's address).
	codeConn, err := transport.DialTCPRetry(shards[0].ID, transport.DefaultPolicy())
	if err != nil {
		return err
	}
	defer codeConn.Close()

	engine := nodeconfig.NewEngine(nodeconfig.ExecContext{Clock: clk, Machine: machine, Node: name}, codeConn)
	// The worker's view of the space: per-op latencies as this node sees
	// them (network included).
	sp = obs.InstrumentSpace(sp, clk, o.Reg(), metrics.HistSpacePrefix)
	w := worker.New(worker.Config{
		Node:         name,
		Clock:        clk,
		Machine:      machine,
		Space:        sp,
		Engine:       engine,
		Program:      jobName,
		TaskTemplate: tmpl,
		TxnTTL:       2 * time.Minute,
		Obs:          o,
	})

	// Signal endpoint (the SNMP-client side of the rule-base protocol).
	sigSrv := transport.NewServer()
	w.Bind(sigSrv)
	sigL, err := transport.ListenTCP(c.sigAddr, sigSrv)
	if err != nil {
		return err
	}
	defer sigL.Close()

	// SNMP agent over UDP.
	mib := snmp.NewMIB()
	mib.Register(snmp.OIDSysName, func() snmp.Value { return snmp.OctetString(name) })
	mib.Register(snmp.OIDHrProcessorLoad, func() snmp.Value {
		return snmp.Integer(int64(machine.RecordSample().Usage + 0.5))
	})
	mib.Register(snmp.OIDBackgroundLoad, func() snmp.Value {
		return snmp.Integer(int64(machine.BackgroundLoad() + 0.5))
	})
	agent, err := snmp.ListenUDP(c.snmpAddr, snmp.NewAgent("public", mib))
	if err != nil {
		return err
	}
	defer agent.Close()
	log.Printf("worker %s: signal endpoint %s, SNMP agent %s", name, sigL.Addr(), agent.Addr())

	// Register with the lookup service so the network manager finds us,
	// and keep the lease renewed while we live.
	regID, err := client.Register(discovery.ServiceItem{
		Name:    name,
		Address: sigL.Addr(),
		Attributes: map[string]string{
			"type": "worker",
			"snmp": agent.Addr(),
			"node": name,
		},
	}, time.Minute)
	if err != nil {
		return err
	}
	ka := discovery.NewKeepAlive(client, clk, regID, time.Minute)
	go ka.Run()
	defer ka.Stop()

	if c.autostart {
		w.AutoStart()
	}
	go w.Run()

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	log.Printf("worker %s: shutting down (%d tasks done)", name, w.Stats().TasksDone)
	w.Shutdown()
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
