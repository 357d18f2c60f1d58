package main

import "gospaces/internal/experiments"

// runLedger prints the per-task ledger: every row of
// experiments.LedgerRows over the in-process network on the virtual clock
// and over loopback TCP on the real clock. Not part of -run all: the TCP
// rows' idle polls vary run to run.
func runLedger() error {
	t, err := experiments.Ledger()
	if err != nil {
		return err
	}
	render(t)
	return nil
}
