// Command expt regenerates the paper's tables and figures on the
// simulated cluster. Each figure prints as an aligned table of the same
// series the paper plots.
//
// Usage:
//
//	expt -run fig6      # scalability, option pricing (Figure 6)
//	expt -run fig7      # scalability, ray tracing (Figure 7)
//	expt -run fig8      # scalability, pre-fetching (Figure 8)
//	expt -run fig9      # adaptation, option pricing (Figure 9 a+b)
//	expt -run fig10     # adaptation, ray tracing (Figure 10 a+b)
//	expt -run fig11     # adaptation, pre-fetching (Figure 11 a+b)
//	expt -run exp3           # dynamic worker behaviour (§5.2.3)
//	expt -run table2         # application classification (Table 2)
//	expt -run intrusiveness  # extension: adaptive vs aggressive cycle stealing
//	expt -run granularity    # extension: task granularity vs intrusion under churn
//	expt -run faultsweep     # extension: completion-time overhead vs worker crash rate
//	expt -run recover        # extension: recovery time vs WAL size, with and without snapshots
//	expt -run all            # everything, in order
//
// The scenario subcommand runs seeded random cluster manifests through
// the property-based invariant checker (internal/scenario):
//
//	expt scenario -seed 42 -count 10   # ten manifests from seed 42
//	expt scenario -seed 1 -minutes 30  # soak for half an hour
//
// The ledger subcommand prints what one task of the paper's loop costs,
// counted (core.Result.PerTask), for each deployment TestPerTaskLedger
// pins, over the in-process network and over loopback TCP:
//
//	expt ledger
//
// The timeline subcommand renders flight-recorder dumps (the
// /debug/flight payload, or a scenario failure's timeline artifact) as
// one merged causal cluster timeline:
//
//	expt timeline scenario-failure-42-timeline.json
package main

import (
	"flag"
	"fmt"
	"os"

	"gospaces/internal/experiments"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
)

var formatCSV bool

func main() {
	// Subcommands dispatch on the first argument, ahead of the
	// experiment flags.
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		if err := runScenario(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "expt scenario:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ledger" {
		if err := runLedger(); err != nil {
			fmt.Fprintln(os.Stderr, "expt ledger:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		if err := runTimeline(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "expt timeline:", err)
			os.Exit(1)
		}
		return
	}
	run := flag.String("run", "all", "experiment to run: fig6…fig11, exp3, table2, intrusiveness, granularity, faultsweep, recover, all")
	format := flag.String("format", "table", "output format: table or csv")
	obsOn := flag.Bool("obs", false, "instrument the runs and print a per-stage latency summary")
	traceOut := flag.String("trace", "", "write every span as a Chrome-trace JSON to this file (implies -obs)")
	flag.Parse()
	formatCSV = *format == "csv"

	var o *obs.Obs
	if *obsOn || *traceOut != "" {
		o = obs.New(1)
		if *traceOut != "" {
			// Exports need the full span set, not the recent-spans ring.
			o.Tracer.KeepAll()
		}
		experiments.SetObs(o)
	}

	if err := dispatch(*run); err != nil {
		fmt.Fprintln(os.Stderr, "expt:", err)
		os.Exit(1)
	}

	if o != nil {
		fmt.Println()
		render(metrics.SummaryTable("Observability — per-stage latency", o.Registry.Summary()))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, o); err != nil {
			fmt.Fprintln(os.Stderr, "expt:", err)
			os.Exit(1)
		}
	}
}

// writeTrace dumps the session's spans in Chrome trace-event format
// (load it at chrome://tracing or https://ui.perfetto.dev).
func writeTrace(path string, o *obs.Obs) error {
	spans := o.Tracer.Spans()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans (%d traces, %d orphans) to %s\n",
		len(spans), len(obs.Traces(spans)), len(obs.Orphans(spans)), path)
	return nil
}

// render prints a table in the selected format.
func render(t *metrics.Table) {
	if formatCSV {
		fmt.Println("#", t.Title)
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t)
}

func dispatch(run string) error {
	switch run {
	case "fig6":
		return scalability("Figure 6 — Scalability Analysis, Option Pricing (13 x 300 MHz workers)", experiments.Fig6OptionPricing)
	case "fig7":
		return scalability("Figure 7 — Scalability Analysis, Ray Tracing (5 x 800 MHz workers)", experiments.Fig7RayTracing)
	case "fig8":
		return scalability("Figure 8 — Scalability Analysis, Web Page Pre-fetching (5 x 800 MHz workers)", experiments.Fig8Prefetch)
	case "fig9":
		return adaptation("Figure 9", experiments.Fig9AdaptationOptionPricing)
	case "fig10":
		return adaptation("Figure 10", experiments.Fig10AdaptationRayTracing)
	case "fig11":
		return adaptation("Figure 11", experiments.Fig11AdaptationPrefetch)
	case "exp3":
		return exp3()
	case "table2":
		return table2()
	case "intrusiveness":
		return intrusiveness()
	case "granularity":
		return granularity()
	case "faultsweep":
		return faultsweep()
	case "recover":
		return recover_()
	case "all":
		for _, r := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "exp3", "table2", "intrusiveness", "granularity", "faultsweep", "recover"} {
			if err := dispatch(r); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", run)
	}
}

func scalability(title string, f func() ([]experiments.ScalabilityPoint, error)) error {
	pts, err := f()
	if err != nil {
		return err
	}
	render(experiments.ScalabilityTable(title, pts))
	return nil
}

func adaptation(fig string, f func() (experiments.AdaptationResult, error)) error {
	res, err := f()
	if err != nil {
		return err
	}
	render(res.TraceTable(fmt.Sprintf("%s(a) — Worker CPU Usage, %s", fig, res.App)))
	fmt.Println()
	render(res.SignalTable(fmt.Sprintf("%s(b) — Worker Reaction Times, %s", fig, res.App)))
	return nil
}

func exp3() error {
	for _, app := range []experiments.AppName{
		experiments.OptionPricing, experiments.RayTracing, experiments.Prefetching,
	} {
		pts, err := experiments.DynamicWorkerBehavior(app)
		if err != nil {
			return err
		}
		render(experiments.DynamicTable(
			fmt.Sprintf("Experiment 3 — Dynamic Worker Behaviour under Varying Load, %s", app), pts))
		fmt.Println()
	}
	return nil
}

func intrusiveness() error {
	results, err := experiments.Intrusiveness()
	if err != nil {
		return err
	}
	render(experiments.IntrusivenessTable(results))
	return nil
}

func granularity() error {
	pts, err := experiments.Granularity()
	if err != nil {
		return err
	}
	render(experiments.GranularityTable(pts))
	return nil
}

func faultsweep() error {
	pts, err := experiments.FaultSweep()
	if err != nil {
		return err
	}
	render(experiments.FaultSweepTable(pts))
	return nil
}

// recover_ avoids shadowing the builtin.
func recover_() error {
	pts, err := experiments.Recover()
	if err != nil {
		return err
	}
	render(experiments.RecoveryTable(pts))
	return nil
}

func table2() error {
	fig6, err := experiments.Fig6OptionPricing()
	if err != nil {
		return err
	}
	fig7, err := experiments.Fig7RayTracing()
	if err != nil {
		return err
	}
	fig8, err := experiments.Fig8Prefetch()
	if err != nil {
		return err
	}
	render(experiments.Table2(fig6, fig7, fig8))
	return nil
}
