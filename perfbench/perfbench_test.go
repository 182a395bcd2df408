package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"ftmrmpi/internal/core"
)

// deterministicRun runs one traced repetition and returns every metric that
// must repeat exactly for a seed: virt_s, recovery_virt_s and the per-layer
// counts, bytes and virtual times.
func deterministicRun(t *testing.T, w *workload, seed int64) (map[string]float64, *instance) {
	t.Helper()
	in, st := w.rep(seed, t.TempDir(), newSpans())
	if st.err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, st.err)
	}
	out := map[string]float64{"virt_s": st.virtS, "recovery_virt_s": st.recoveryS}
	for _, m := range countMetrics(in) {
		out[m.name] = m.value
	}
	return out, in
}

// Two same-seed runs must repeat every deterministic metric exactly, and a
// second seed must pass the oracle on different inputs.
func TestSeeds(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			a, _ := deterministicRun(t, w, 1)
			b, _ := deterministicRun(t, w, 1)
			for name, va := range a {
				if vb := b[name]; va != vb {
					t.Errorf("%s: %v then %v", name, va, vb)
				}
			}
			if (a["trace.events"] > 0) != w.planes {
				t.Errorf("trace.events = %v with planes on = %v", a["trace.events"], w.planes)
			}
			c, _ := deterministicRun(t, w, 2)
			if c["vtime.events"] == a["vtime.events"] && c["virt_s"] == a["virt_s"] {
				t.Errorf("seeds 1 and 2 ran identical simulations: the seed does not reach the inputs")
			}
		})
	}
}

// With the introspection plane on, Sim.Run returns the time of the plane's
// last capture, after the last job ended; virt_s must be the jobs' span.
func TestVirtSComesFromResults(t *testing.T) {
	got := virtS([]*core.Result{
		{Start: 2 * time.Second, End: 3 * time.Second},
		{Start: 1 * time.Second, End: 2500 * time.Millisecond},
	})
	if got != 2 {
		t.Fatalf("virtS = %v, want 2 (latest End minus earliest Start)", got)
	}

	w := findWorkload("pagerank-observed")
	m, in := deterministicRun(t, w, 1)
	if m["virt_s"] <= 0 || m["virt_s"] >= in.simEnd.Seconds() {
		t.Fatalf("virt_s = %v, Sim.Run returned %v: want 0 < virt_s < Sim.Run", m["virt_s"], in.simEnd.Seconds())
	}
}

func TestModuleSharesAttributesInternalFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		microKV(1, 4096, 8, 1)
	}
	pprof.StopCPUProfile()
	shares, err := moduleShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, m := range cpuModules {
		total += shares[m]
	}
	if len(shares) != len(cpuModules) || total < 0.999 || total > 1.001 {
		t.Fatalf("shares %v: want one per module summing to 1", shares)
	}
	if shares["kvbuf"] == 0 {
		t.Fatalf("no CPU attributed to kvbuf while only kvbuf ran: %v", shares)
	}
}
