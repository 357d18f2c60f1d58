// Command netman runs the network management module over real networks:
// each monitoring round reads the worker nodes from the lookup service,
// polls each one's SNMP agent over UDP for CPU load, and drives the workers
// through the rule-base protocol (Start/Stop/Pause/Resume) over TCP. A node
// that leaves the lookup service is dropped on the next round; one that
// re-announces under its name gets a fresh Start.
//
// Usage:
//
//	netman -lookup 127.0.0.1:7001 -poll 1s
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/netmgmt"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

func main() {
	lookupAddr := flag.String("lookup", "127.0.0.1:7001", "lookup service address")
	poll := flag.Duration("poll", time.Second, "monitoring period: each round rereads the workers from the lookup service and polls them")
	flag.Parse()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	if err := run(*lookupAddr, *poll, stop); err != nil {
		log.Fatalf("netman: %v", err)
	}
}

// run manages the workers announced at lookupAddr until stop delivers.
func run(lookupAddr string, poll time.Duration, stop <-chan os.Signal) error {
	lc, err := transport.DialTCP(lookupAddr)
	if err != nil {
		return err
	}
	defer lc.Close()
	mod := netmgmt.New(netmgmt.Config{
		Clock:        vclock.NewReal(),
		Env:          netmgmt.TCPEnv(discovery.NewClient(lc)),
		PollInterval: poll,
	})
	done := make(chan struct{})
	go func() { mod.Run(); close(done) }()
	log.Printf("netman: monitoring the workers announced at %s", lookupAddr)
	<-stop
	mod.Shutdown()
	<-done
	log.Printf("netman: shutting down (%d signal events)", len(mod.Events()))
	return nil
}
