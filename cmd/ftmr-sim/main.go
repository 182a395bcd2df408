// Command ftmr-sim runs one MapReduce job on the simulated cluster with a
// configurable workload, fault-tolerance model, and failure injection, and
// prints the job's outcome and phase profile.
//
// Examples:
//
//	ftmr-sim -workload wordcount -procs 64 -model wc -kill-phase reduce
//	ftmr-sim -workload blast -procs 128 -model cr -kill-phase map -restart
//	ftmr-sim -workload pagerank -procs 64 -model nwc -kills 4 -kill-every 20ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
	"ftmrmpi/internal/workloads"
)

func parseModel(s string) (core.Model, error) {
	switch s {
	case "none", "mrmpi":
		return core.ModelNone, nil
	case "cr":
		return core.ModelCheckpointRestart, nil
	case "wc":
		return core.ModelDetectResumeWC, nil
	case "nwc":
		return core.ModelDetectResumeNWC, nil
	}
	return 0, fmt.Errorf("unknown model %q (none|cr|wc|nwc)", s)
}

// parseOutage parses a "begin,end" pair of virtual-time durations.
func parseOutage(s string) (begin, end time.Duration, err error) {
	i := strings.IndexByte(s, ',')
	if i < 0 {
		return 0, 0, fmt.Errorf(`-outage wants "begin,end" durations, got %q`, s)
	}
	if begin, err = time.ParseDuration(s[:i]); err != nil {
		return 0, 0, fmt.Errorf("-outage begin: %v", err)
	}
	if end, err = time.ParseDuration(s[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("-outage end: %v", err)
	}
	if end <= begin {
		return 0, 0, fmt.Errorf("-outage window %q is empty (end must exceed begin)", s)
	}
	return begin, end, nil
}

func main() {
	var (
		workload  = flag.String("workload", "wordcount", "wordcount | pagerank | bfs | blast")
		procs     = flag.Int("procs", 64, "number of MPI ranks")
		model     = flag.String("model", "wc", "fault tolerance: none | cr | wc | nwc")
		interval  = flag.Int("ckpt-interval", 100, "records per checkpoint")
		gran      = flag.String("granularity", "record", "checkpoint granularity: record | chunk")
		direct    = flag.Bool("ckpt-direct-pfs", false, "write checkpoints straight to the PFS")
		prefetch  = flag.Bool("prefetch", false, "enable recovery prefetching")
		killPhase = flag.String("kill-phase", "", "kill one rank in this phase: map | reduce")
		killRank  = flag.Int("kill-rank", -1, "rank to kill (default procs/2)")
		kills     = flag.Int("kills", 0, "continuous failures: total ranks to kill")
		killEvery = flag.Duration("kill-every", 20*time.Millisecond, "continuous failure interval")
		restart   = flag.Bool("restart", false, "after an aborted CR run, resubmit with Resume")
		lbModel   = flag.String("lb-model", "static", "load-balancer regression model: static | trace")
		iters     = flag.Int("iters", 2, "iterations (pagerank/bfs)")
		asJSON    = flag.Bool("json", false, "emit results as JSON lines")
		tracePath = flag.String("trace", "", "write an event trace to this file")
		traceFmt  = flag.String("trace-format", "chrome", "trace format: jsonl | chrome")
		traceCap  = flag.Int("trace-cap", 1<<16, "per-rank trace ring capacity (events)")
		chaos     = flag.Int("chaos", 0, "chaos mode: random kills (plus one aimed inside recovery)")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for chaos kills and storage faults")
		chaosWin  = flag.Duration("chaos-window", 2*time.Second, "virtual-time window for chaos kills")
		stFaults  = flag.Bool("storage-faults", false, "inject seeded storage faults (torn writes, bit flips, read errors, latency spikes)")
		replicaK  = flag.Int("replica-k", 0, "diskless replica tier: push checkpoint frames to k ring-successor peers (0 disables)")
		ftModel   = flag.String("ft-model", "cr", "replication execution model: cr | replicate | partial (replicate/partial require -model wc or nwc)")
		repFrac   = flag.Float64("replica-fraction", 0, "fraction of primary slots given a shadow under -ft-model=partial (0: default 0.5)")
		outage    = flag.String("outage", "", `PFS whole-tier outage window as "begin,end" virtual-time durations (e.g. "100ms,400ms")`)
		streamTo  = flag.String("trace-stream", "", "stream JSONL events (write-through) to this file during the run")
		critOut   = flag.String("critpath-out", "", "write the critical-path report to this file (enables tracing)")

		introspectOut = flag.String("introspect-out", "", "stream introspection snapshots (JSONL) to this file")
		introspectInt = flag.Duration("introspect-interval", 100*time.Millisecond, "virtual-time snapshot cadence for the introspection plane")
		stallAfter    = flag.Duration("stall-after", 0, "wall-clock no-progress watchdog: report a stall after this much real time without virtual-time progress (0 disables; enables the plane)")

		metricsOut      = flag.String("metrics-out", "", "write the final metrics snapshot (OpenMetrics text) to this file")
		metricsInterval = flag.Duration("metrics-interval", 0, "also sample metrics on this virtual-time cadence (0: final snapshot only)")
		health          = flag.Bool("health", false, "print the SLO health report and exit 1 when the gate fails")
	)
	slo := metrics.SLOFlags(flag.CommandLine)
	flag.Parse()

	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		fmt.Fprintf(os.Stderr, "unknown trace format %q (jsonl|chrome)\n", *traceFmt)
		os.Exit(2)
	}

	m, err := parseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lbm, err := core.ParseLBModel(*lbModel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ftm, err := core.ParseFTModel(*ftModel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	clus := func() *cluster.Cluster {
		cfg := cluster.Default()
		need := (*procs + cfg.PPN - 1) / cfg.PPN
		if need < cfg.Nodes {
			cfg.Nodes = need
		}
		return cluster.New(cfg)
	}()
	if *tracePath != "" || *streamTo != "" || *critOut != "" {
		clus.Trace = trace.New(clus.Sim, *traceCap)
	}
	// The registry must exist before Launch: instruments bind per rank at
	// spawn time.
	var sampler *metrics.Sampler
	if *metricsOut != "" || *health {
		clus.Metrics = metrics.New(clus.Sim)
		sampler = metrics.StartSampler(clus.Metrics, *metricsInterval)
	}
	// Like the registry, the plane must exist before Launch: probes bind per
	// rank at spawn time.
	var inspFile *os.File
	if *introspectOut != "" || *stallAfter > 0 {
		pl := introspect.New(clus.Sim, *introspectInt)
		clus.Introspect = pl
		pl.Outages = func(now time.Duration) []introspect.Outage {
			var out []introspect.Outage
			tiers := []*storage.Tier{clus.PFS}
			for _, n := range clus.Nodes {
				if n.Local != nil {
					tiers = append(tiers, n.Local)
				}
			}
			for _, t := range tiers {
				if t.Faults == nil {
					continue
				}
				if until, ok := t.Faults.OutageUntil(now); ok {
					out = append(out, introspect.Outage{Tier: t.Name, UntilUS: float64(until) / 1e3})
				}
			}
			return out
		}
		if clus.Metrics != nil {
			reg := clus.Metrics
			pl.OnRankStates = func(counts map[string]int) {
				for _, st := range introspect.AllStates {
					reg.GaugeL(metrics.MRankState,
						"ranks per wait state at the last introspection snapshot",
						"state", st).Set(float64(counts[st]))
				}
				reg.GaugeL(metrics.MIntrospectStalls,
					"stall reports from the introspection plane",
					"kind", "total").Set(float64(len(pl.Stalls())))
			}
		}
		if *introspectOut != "" {
			f, err := os.Create(*introspectOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "introspect: %v\n", err)
				os.Exit(1)
			}
			inspFile = f
			pl.StreamJSONL(f)
		}
	}
	var streamFile *os.File
	if *streamTo != "" {
		f, err := os.Create(*streamTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace stream: %v\n", err)
			os.Exit(1)
		}
		streamFile = f
		clus.Trace.StreamJSONL(f)
	}

	base := core.Spec{
		Model:           m,
		CkptInterval:    *interval,
		Prefetch:        *prefetch,
		LoadBalance:     true,
		LBModel:         lbm,
		ReplicaK:        *replicaK,
		FTModel:         ftm,
		ReplicaFraction: *repFrac,
	}
	if *gran == "chunk" {
		base.Granularity = core.GranChunk
	}
	if *direct {
		base.CkptLocation = core.LocDirectPFS
	}

	var h *core.Handle
	switch *workload {
	case "wordcount":
		p := workloads.DefaultWordcount()
		workloads.GenCorpus(clus, "in/job", p)
		spec := workloads.WordcountSpec("job", "in/job", *procs, p)
		spec.Model, spec.CkptInterval, spec.Granularity = base.Model, base.CkptInterval, base.Granularity
		spec.CkptLocation, spec.Prefetch, spec.LoadBalance = base.CkptLocation, base.Prefetch, true
		spec.LBModel, spec.ReplicaK = base.LBModel, base.ReplicaK
		spec.FTModel, spec.ReplicaFraction = base.FTModel, base.ReplicaFraction
		h = core.RunSingle(clus, spec)
	case "blast":
		p := workloads.DefaultBlast()
		workloads.GenBlastInput(clus, "in/job", p)
		spec := workloads.BlastSpec("job", "in/job", *procs, p)
		spec.Model, spec.CkptInterval, spec.Granularity = base.Model, base.CkptInterval, base.Granularity
		spec.CkptLocation, spec.Prefetch, spec.LoadBalance = base.CkptLocation, base.Prefetch, true
		spec.LBModel, spec.ReplicaK = base.LBModel, base.ReplicaK
		spec.FTModel, spec.ReplicaFraction = base.FTModel, base.ReplicaFraction
		h = core.RunSingle(clus, spec)
	case "pagerank":
		p := workloads.DefaultPageRank()
		workloads.GenPageRankInput(clus, "in/job", p)
		n := *iters
		h = core.Launch(clus, *procs, func(app *core.App) {
			_, _ = workloads.PageRankDriver(app, base, "job", "in/job", n, p)
		})
	case "bfs":
		p := workloads.DefaultBFS()
		workloads.GenBFSInput(clus, "in/job", p)
		h = core.Launch(clus, *procs, func(app *core.App) {
			_, _ = workloads.BFSDriver(app, base, "job", "in/job", 20, p)
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}

	if *stFaults {
		// Attach after input generation so the corpus itself is pristine;
		// everything the job reads and writes from here on can fault.
		failure.StorageFaults(clus, *chaosSeed)
	}
	if *outage != "" {
		begin, end, err := parseOutage(*outage)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		failure.PFSOutage(clus, begin, end)
	}
	switch {
	case *chaos > 0:
		failure.Chaos(h, *chaosSeed, *chaos, *chaosWin)
	case *kills > 0:
		failure.Continuous(h.World, *killEvery, *kills, 1)
	case *killPhase != "":
		rank := *killRank
		if rank < 0 {
			rank = *procs / 2
		}
		ph := core.PhaseMap
		if *killPhase == "reduce" {
			ph = core.PhaseReduce
		}
		failure.KillOnPhase(h, rank, ph, time.Millisecond)
	}

	clus.Introspect.Start()
	wd := clus.Introspect.StartWatchdog(*stallAfter, os.Stderr)
	clus.Sim.Run()
	wd.Stop()

	report := func(res *core.Result) {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			_ = enc.Encode(res.Summary())
			return
		}
		fmt.Printf("job %-24s aborted=%-5v elapsed=%8.3fs failed-ranks=%v\n",
			res.Spec.JobID, res.Aborted, res.Elapsed().Seconds(), res.FailedRanks)
		for _, ph := range []core.Phase{core.PhaseMap, core.PhaseShuffle, core.PhaseConvert, core.PhaseReduce, core.PhaseRecovery} {
			if d := res.MaxPhase(ph); d > 0 {
				fmt.Printf("    %-9s max %8.3fs   aggregate %9.3fs\n", ph, d.Seconds(), res.PhaseTotal(ph).Seconds())
			}
		}
	}
	allResults := h.Results()
	for _, res := range allResults {
		report(res)
	}

	if *restart && m == core.ModelCheckpointRestart && len(h.Results()) > 0 && h.Results()[0].Aborted {
		fmt.Println("resubmitting with Resume...")
		spec := h.Results()[0].Spec
		spec.Resume = true
		h2 := core.RunSingle(clus, spec)
		clus.Introspect.Start()
		wd2 := clus.Introspect.StartWatchdog(*stallAfter, os.Stderr)
		clus.Sim.Run()
		wd2.Stop()
		report(h2.Result())
		allResults = append(allResults, h2.Result())
	}
	// Post-run capture: if ranks deadlocked, the heap drained with them still
	// parked and this snapshot names the cycle.
	clus.Introspect.Final()
	if clus.Introspect != nil && clus.Metrics != nil {
		clus.Metrics.GaugeL(metrics.MIntrospectStalls,
			"stall reports from the introspection plane",
			"kind", "total").Set(float64(len(clus.Introspect.Stalls())))
	}

	if *stFaults || *outage != "" {
		s := clus.PFS.Faults.Stats
		for _, n := range clus.Nodes {
			if n.Local != nil && n.Local.Faults != nil {
				ls := n.Local.Faults.Stats
				s.TornWrites += ls.TornWrites
				s.BitFlips += ls.BitFlips
				s.ReadErrors += ls.ReadErrors
				s.ReadSpikes += ls.ReadSpikes
				s.WriteSpikes += ls.WriteSpikes
				s.OutageOps += ls.OutageOps
			}
		}
		fmt.Fprintf(os.Stderr, "storage faults injected: torn=%d bitflip=%d readerr=%d rspike=%d wspike=%d outage-ops=%d\n",
			s.TornWrites, s.BitFlips, s.ReadErrors, s.ReadSpikes, s.WriteSpikes, s.OutageOps)
	}
	if streamFile != nil {
		if err := clus.Trace.FlushStream(); err != nil {
			fmt.Fprintf(os.Stderr, "trace stream: %v\n", err)
			os.Exit(1)
		}
		_ = streamFile.Close()
		fmt.Fprintf(os.Stderr, "trace streamed to %s (jsonl)\n", *streamTo)
	}
	if *tracePath != "" {
		if err := clus.Trace.WriteFile(*tracePath, *traceFmt); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%s)\n", *tracePath, *traceFmt)
	}

	var critRep *critpath.Report
	if *critOut != "" {
		events := append(clus.Trace.Events(), clus.Trace.DropEvents()...)
		rep, err := critpath.Analyze(events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "critpath: %v\n", err)
			os.Exit(2)
		}
		critRep = rep
		if rep.Unreliable {
			fmt.Fprintf(os.Stderr, "critpath: warning: %d events overwritten by ring buffers; report is UNRELIABLE (raise -trace-cap)\n", rep.Dropped)
		}
		f, err := os.Create(*critOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "critpath: %v\n", err)
			os.Exit(1)
		}
		rep.Render(f, 10)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "critpath: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "critical-path report written to %s\n", *critOut)
	}

	if clus.Metrics != nil {
		core.ExportResultMetrics(clus.Metrics, allResults)
		// Ring-overwrite accounting: any dropped event invalidates
		// trace-derived analyses, so it rides along in the health plane.
		if clus.Trace != nil {
			for _, r := range clus.Trace.Ranks() {
				if d := clus.Trace.Dropped(r); d > 0 {
					clus.Metrics.Counter(metrics.MTraceDropped,
						"trace events overwritten by a rank's ring buffer", r).Add(float64(d))
				}
			}
		}
		critpath.Export(clus.Metrics, critRep)
		var final metrics.Snapshot
		if sampler != nil {
			snaps := sampler.Final()
			final = snaps[len(snaps)-1]
		} else {
			final = clus.Metrics.Snapshot()
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
			if err := metrics.WriteOpenMetrics(f, final); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "metrics written to %s (openmetrics)\n", *metricsOut)
		}
		if *health {
			hl := metrics.Evaluate(final, *slo)
			hl.Render(os.Stdout)
			if hl.Breached() {
				os.Exit(1)
			}
		}
	}

	if clus.Introspect != nil {
		if inspFile != nil {
			if err := clus.Introspect.FlushStream(); err != nil {
				fmt.Fprintf(os.Stderr, "introspect: %v\n", err)
				os.Exit(1)
			}
			_ = inspFile.Close()
			fmt.Fprintf(os.Stderr, "introspection snapshots written to %s (jsonl)\n", *introspectOut)
		}
		if stalls := clus.Introspect.Stalls(); len(stalls) > 0 {
			fmt.Fprintf(os.Stderr, "introspect: %d stall report(s) (%s); inspect with: ftmr-trace inspect %s\n",
				len(stalls), stalls[0].Reason, *introspectOut)
			os.Exit(1)
		}
	}
}
