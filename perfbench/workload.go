package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

// traceCapPerRank is ftmr-sim's default ring size (-trace-cap), so the
// observed workload pays the tracer memory a CLI user pays.
const traceCapPerRank = 1 << 16

// killSeed picks the victims of continuous kills. It is fixed rather than
// taken from the input seed so that every seed loses the same ranks at the
// same instants and virt_s varies only with the generated input.
const killSeed = 1

// prTolerance is the absolute per-node tolerance of the PageRank oracle.
// The driver rounds every rank to 1e-10 between iterations, which leaves
// the ranks of the 60k-node graph up to about 4e-10 off the unrounded
// reference. The smallest contribution one node can send is
// 0.85 x (0.15/60000) / 15 (out-degree is at most 15), about 1.4e-7, so a
// lost or duplicated contribution is caught.
const prTolerance = 1e-9

// workload is one named benchmark input: the job it runs on a fresh
// simulated cluster, the failures injected into it, and the observability
// planes switched on. Every input is generated from the run's seed.
type workload struct {
	name  string
	ranks int

	// Exactly one of wc and pr is set; the seed is filled in per run.
	wc    *workloads.WordcountParams
	pr    *workloads.PageRankParams
	iters int // PageRank iterations (two MapReduce jobs each)

	// One aimed kill (killPhase != "") or continuous kills (killEvery > 0).
	killRank  int
	killPhase core.Phase
	killDelay time.Duration
	killEvery time.Duration
	killCount int

	replicaK int
	planes   bool // trace, metrics registry and introspection plane
}

// allWorkloads lists the benchmark's workloads in BENCHMARK.json order;
// why each was chosen is recorded there and in README.md.
var allWorkloads = []*workload{
	{
		name:  "wc-wide",
		ranks: 1000,
		wc:    wcParams(2000, 16),
	},
	{
		name:      "wc-deep-failover",
		ranks:     64,
		wc:        wcParams(2048, 128),
		killRank:  32,
		killPhase: core.PhaseMap,
		killDelay: 300 * time.Millisecond,
	},
	{
		name:      "pagerank-observed",
		ranks:     128,
		pr:        prParams(),
		iters:     2,
		killEvery: 20 * time.Millisecond,
		killCount: 3,
		replicaK:  2,
		planes:    true,
	},
}

func wcParams(chunks, lines int) *workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks, p.Lines = chunks, lines
	return &p
}

func prParams() *workloads.PageRankParams {
	p := workloads.DefaultPageRank()
	return &p
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// describe renders the workload's generator parameters, kill schedule and
// planes on one line.
func (w *workload) describe(seed int64) string {
	var in string
	if w.wc != nil {
		in = fmt.Sprintf("wordcount chunks=%d lines=%d words/line=%d vocab=%d", w.wc.Chunks, w.wc.Lines, w.wc.WordsLine, w.wc.Vocab)
	} else {
		g := w.pr.Graph
		in = fmt.Sprintf("pagerank nodes=%d degree=%d chunks=%d iters=%d", g.Nodes, g.Degree, g.Chunks, w.iters)
	}
	kill := "none"
	switch {
	case w.killPhase != "":
		kill = fmt.Sprintf("rank %d at %s into its %s phase", w.killRank, w.killDelay, w.killPhase)
	case w.killEvery > 0:
		kill = fmt.Sprintf("%d ranks every %s drawn by failure.Continuous seed %d", w.killCount, w.killEvery, killSeed)
	}
	planes := "off"
	if w.planes {
		planes = fmt.Sprintf("trace(jsonl, %d/rank) metrics(final snapshot) introspect(100ms, jsonl)", traceCapPerRank)
	}
	return fmt.Sprintf("%s seed=%d ranks=%d model=detect/resume(WC) ckpt-interval=100 replica-k=%d kills=%s planes=%s",
		in, seed, w.ranks, w.replicaK, kill, planes)
}

// instance is one workload built on a fresh cluster, ready to submit.
type instance struct {
	w      *workload
	seed   int64
	prefix string // path prefix of the plane output files
	clus   *cluster.Cluster
	sp     *spans // nil outside the traced run

	expect      map[string]int // wordcount oracle
	inspFile    *os.File
	h           *core.Handle
	finalPrefix string        // PageRank's final state prefix
	simEnd      time.Duration // Sim.Run's return value

	traceBytes   int64
	traceWrite   time.Duration
	metricsSnap  metrics.Snapshot
	metricsWrite time.Duration
}

// setup builds the cluster, generates the inputs and constructs the planes,
// whose output files start with prefix. withMetrics attaches a metrics
// registry even when the workload runs with planes off (the traced run reads
// the mpi and core counts from it).
func (w *workload) setup(seed int64, prefix string, withMetrics bool, sp *spans) (*instance, error) {
	in := &instance{w: w, seed: seed, prefix: prefix, sp: sp}
	end := sp.begin("cluster.New")
	cfg := cluster.Default()
	cfg.Nodes = (w.ranks + cfg.PPN - 1) / cfg.PPN
	in.clus = cluster.New(cfg)
	end()
	if w.wc != nil {
		p := *w.wc
		p.Seed = seed
		end = sp.begin("workloads.GenCorpus")
		in.expect = workloads.GenCorpus(in.clus, "in/"+w.name, p)
		end()
	} else {
		p := *w.pr
		p.Graph.Seed = seed
		end = sp.begin("workloads.GenPageRankInput")
		workloads.GenPageRankInput(in.clus, "in/"+w.name, p)
		end()
	}
	end = sp.begin("planes.New")
	defer end()
	if w.planes {
		in.clus.Trace = trace.New(in.clus.Sim, traceCapPerRank)
		in.clus.Introspect = introspect.New(in.clus.Sim, 0)
		f, err := os.Create(prefix + ".introspect.jsonl")
		if err != nil {
			return nil, err
		}
		in.inspFile = f
		in.clus.Introspect.StreamJSONL(f)
	}
	if w.planes || withMetrics {
		in.clus.Metrics = metrics.New(in.clus.Sim)
	}
	return in, nil
}

// baseSpec is the fault-tolerance configuration every job runs with.
func (w *workload) baseSpec() core.Spec {
	return core.Spec{
		Model:        core.ModelDetectResumeWC,
		CkptInterval: 100,
		LoadBalance:  true,
		ReplicaK:     w.replicaK,
	}
}

// run submits the job, injects the kill schedule, runs the simulation and
// writes every enabled plane's output: the span wall_s measures.
func (in *instance) run() error {
	w, clus, sp := in.w, in.clus, in.sp
	if w.wc != nil {
		spec := workloads.WordcountSpec(w.name, "in/"+w.name, w.ranks, *w.wc)
		base := w.baseSpec()
		spec.Model, spec.CkptInterval, spec.LoadBalance, spec.ReplicaK = base.Model, base.CkptInterval, base.LoadBalance, base.ReplicaK
		end := sp.begin("core.RunSingle")
		in.h = core.RunSingle(clus, spec)
		end()
	} else {
		p := *w.pr
		p.Graph.Seed = in.seed
		end := sp.begin("core.Launch")
		in.h = core.Launch(clus, w.ranks, func(app *core.App) {
			if out, err := workloads.PageRankDriver(app, w.baseSpec(), w.name, "in/"+w.name, w.iters, p); err == nil {
				in.finalPrefix = out
			}
		})
		end()
	}
	switch {
	case w.killPhase != "":
		failure.KillOnPhase(in.h, w.killRank, w.killPhase, w.killDelay)
	case w.killEvery > 0:
		failure.Continuous(in.h.World, w.killEvery, w.killCount, killSeed)
	}

	clus.Introspect.Start()
	end := sp.begin("Sim.Run")
	in.simEnd = clus.Sim.Run()
	end()
	clus.Introspect.Final()
	if !w.planes {
		return nil
	}
	return in.writePlanes()
}

// writePlanes writes the trace as JSONL, the final metrics snapshot as
// OpenMetrics text, and flushes the introspection stream.
func (in *instance) writePlanes() error {
	clus, sp := in.clus, in.sp
	end := sp.begin("trace.WriteJSONL")
	start := time.Now()
	n, err := writeFile(in.prefix+".trace.jsonl", clus.Trace.WriteJSONL)
	in.traceWrite, in.traceBytes = time.Since(start), n
	end()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	end = sp.begin("metrics.WriteOpenMetrics")
	start = time.Now()
	core.ExportResultMetrics(clus.Metrics, in.h.Results())
	in.metricsSnap = clus.Metrics.Snapshot()
	_, err = writeFile(in.prefix+".metrics.om", func(f io.Writer) error {
		return metrics.WriteOpenMetrics(f, in.metricsSnap)
	})
	in.metricsWrite = time.Since(start)
	end()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}

	end = sp.begin("introspect.FlushStream")
	defer end()
	err = clus.Introspect.FlushStream()
	if cerr := in.inspFile.Close(); err == nil {
		err = cerr
	}
	in.inspFile = nil
	if err != nil {
		return fmt.Errorf("introspect: %w", err)
	}
	return nil
}

// writeFile creates path, lets write fill it, and returns the bytes written.
func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	err = write(cw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// close releases files a failed run left open.
func (in *instance) close() {
	if in.inspFile != nil {
		_ = in.inspFile.Close()
	}
}

// verify is the oracle: the job must not abort, strand a proc or report a
// stall, and its output must match the sequential reference.
func (in *instance) verify() error {
	end := in.sp.begin("oracle")
	defer end()
	results := in.h.Results()
	if len(results) == 0 {
		return fmt.Errorf("no job ran")
	}
	for _, r := range results {
		if r == nil || r.Aborted {
			return fmt.Errorf("a job aborted")
		}
	}
	if s := in.clus.Sim.Stranded(); len(s) > 0 {
		return fmt.Errorf("%d procs stranded (first %s)", len(s), s[0])
	}
	if s := in.clus.Introspect.Stalls(); len(s) > 0 {
		return fmt.Errorf("introspection reported %d stalls (%s)", len(s), s[0].Reason)
	}
	if in.w.wc != nil {
		got := workloads.ReadWordCounts(in.clus, in.w.name, in.w.ranks)
		if len(got) != len(in.expect) {
			return fmt.Errorf("wordcount: %d distinct words, want %d", len(got), len(in.expect))
		}
		for word, n := range in.expect {
			if got[word] != n {
				return fmt.Errorf("wordcount: %q counted %d, want %d", word, got[word], n)
			}
		}
		return nil
	}
	if in.finalPrefix == "" {
		return fmt.Errorf("pagerank: driver returned no output")
	}
	p := *in.w.pr
	p.Graph.Seed = in.seed
	got := workloads.ReadRanks(in.clus, in.finalPrefix)
	ref := workloads.RefPageRank(p, in.w.iters)
	if len(got) != len(ref) {
		return fmt.Errorf("pagerank: %d ranked nodes, want %d", len(got), len(ref))
	}
	for node, want := range ref {
		if d := math.Abs(got[node] - want); !(d <= prTolerance) {
			return fmt.Errorf("pagerank: node %d rank %g, want %g", node, got[node], want)
		}
	}
	return nil
}

// virtS is the simulated makespan: latest job End minus earliest Start.
// Sim.Run's return value is not used because the introspection cadence
// rounds it up to its next capture.
func virtS(results []*core.Result) float64 {
	var first, last time.Duration
	for i, r := range results {
		if i == 0 || r.Start < first {
			first = r.Start
		}
		if r.End > last {
			last = r.End
		}
	}
	return (last - first).Seconds()
}

// recoveryVirtS sums, over the jobs, the worst rank's recovery time
// (init+load+skip+reprocess, the paper's Figure 3 decomposition).
func recoveryVirtS(results []*core.Result) float64 {
	var total time.Duration
	for _, r := range results {
		var worst time.Duration
		for _, m := range r.Ranks {
			if m != nil && m.Recovery.Total() > worst {
				worst = m.Recovery.Total()
			}
		}
		total += worst
	}
	return total.Seconds()
}
