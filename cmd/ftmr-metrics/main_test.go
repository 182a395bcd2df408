package main

import (
	"os"
	"path/filepath"
	"testing"

	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/vtime"
)

// The health subcommand must gate with DefaultSLO's bounds, the ones
// ftmr-sim -health uses: a run whose recovery reads all came from the PFS
// is report-only on that indicator (bound -1), not a breach.
func TestHealthDefaultsAreDefaultSLO(t *testing.T) {
	reg := metrics.New(vtime.NewSim())
	reg.CounterL(metrics.MRecoveryReads, "recovery reads by source", "source", "pfs").Add(3)
	path := filepath.Join(t.TempDir(), "s.om")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteOpenMetrics(f, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	snap, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Evaluate(snap, metrics.DefaultSLO()).Breached() {
		t.Fatalf("fixture breaches DefaultSLO; it cannot tell the two gates apart")
	}

	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	code := cmdHealth([]string{path})
	os.Stdout = stdout
	devnull.Close()
	if code != 0 {
		t.Fatalf("ftmr-metrics health exited %d on a snapshot DefaultSLO passes", code)
	}
}
