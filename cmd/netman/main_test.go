package main

import (
	"os"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/discovery"
	"gospaces/internal/rulebase"
	"gospaces/internal/shardhost"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"
)

// TestRunManagesAnnouncedWorkers runs netman against a loopback lookup
// service and a worker node over TCP, as cmd/worker builds it: the node
// gets Start; after its Close it leaves the lookup service and is dropped;
// and a replacement under the same name, restarted in place at the same
// signal and SNMP addresses, gets its own Start. The first node's signal
// connection died with it, so that Start reaches the replacement only on
// links made afresh for it.
func TestRunManagesAnnouncedWorkers(t *testing.T) {
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
	defer lc.Close()
	// The space the node joins.
	hostEnv, err := shardhost.TCPEnv("127.0.0.1:0", discovery.NewClient(lc))
	if err != nil {
		t.Fatal(err)
	}
	group := vclock.NewGroup(clk)
	defer group.Wait()
	hostEnv.Spawn = group.Go
	h, err := shardhost.New(clk, hostEnv, shardhost.Spec{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() { done <- run(ll.Addr(), 20*time.Millisecond, stop) }()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	node := func(sig, snmpAddr string) *workerhost.Node {
		t.Helper()
		n, err := workerhost.New(clk, workerhost.TCPEnv(ll.Addr(), sig, snmpAddr), workerhost.Spec{
			Machine:      sysmon.NewMachine(clk, "node01", 1),
			Program:      montecarlo.JobName,
			TaskTemplate: func(map[string]string) tuplespace.Entry { return montecarlo.Task{Job: montecarlo.JobName} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	started := func(what string, n *workerhost.Node) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if sigs := n.Worker().Signals(); len(sigs) > 0 {
				if len(sigs) != 1 || sigs[0].Signal != rulebase.SignalStart {
					t.Fatalf("%s received %+v, want one Start", what, sigs)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s got no Start within 5s", what)
			}
		}
	}

	first := node("127.0.0.1:0", "127.0.0.1:0")
	started("the node", first)
	first.Close()
	if items := reg.Lookup(map[string]string{"type": workerhost.ServiceType}); len(items) != 0 {
		t.Fatalf("a closed node is still announced: %+v", items)
	}
	time.Sleep(100 * time.Millisecond) // five rounds: the closed node is dropped

	second := node(first.Addr(), first.SNMPAddr())
	defer second.Close()
	started("the replacement", second)
}
