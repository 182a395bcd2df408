package workloads

import (
	"math"
	"strconv"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/sched"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 4
	cfg.PPN = 2
	return cluster.New(cfg)
}

func smallWordcount() WordcountParams {
	p := DefaultWordcount()
	p.Chunks = 16
	p.Lines = 30
	p.Vocab = 200
	return p
}

func TestWordcountMatchesExpectation(t *testing.T) {
	clus := testCluster()
	p := smallWordcount()
	expect := GenCorpus(clus, "in/wc", p)
	spec := WordcountSpec("wc", "in/wc", 8, p)
	h := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if h.Result().Aborted {
		t.Fatal("job aborted")
	}
	got := ReadWordCounts(clus, "wc", 8)
	if len(got) != len(expect) {
		t.Fatalf("%d words, want %d", len(got), len(expect))
	}
	for w, n := range expect {
		if got[w] != n {
			t.Fatalf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
}

func smallGraph() GraphParams {
	return GraphParams{Nodes: 300, Degree: 4, Chunks: 12, Seed: 3}
}

func TestPageRankMatchesReference(t *testing.T) {
	clus := testCluster()
	p := DefaultPageRank()
	p.Graph = smallGraph()
	GenPageRankInput(clus, "in/pr", p)
	iters := 4
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelNone}
		out, err := PageRankDriver(app, base, "pr", "in/pr", iters, p)
		if err == nil {
			final = out
		}
	})
	clus.Sim.Run()
	for _, res := range h.Results() {
		if res.Aborted {
			t.Fatal("a stage aborted")
		}
	}
	ranks := ReadRanks(clus, final)
	ref := RefPageRank(p, iters)
	if len(ranks) != p.Graph.Nodes {
		t.Fatalf("%d nodes in output, want %d", len(ranks), p.Graph.Nodes)
	}
	for i, want := range ref {
		got := ranks[i]
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("rank[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestPageRankUnderDetectResumeFailure(t *testing.T) {
	clus := testCluster()
	p := DefaultPageRank()
	p.Graph = smallGraph()
	GenPageRankInput(clus, "in/prf", p)
	iters := 3
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelDetectResumeWC, CkptInterval: 10, LoadBalance: true}
		out, err := PageRankDriver(app, base, "prf", "in/prf", iters, p)
		if err == nil {
			final = out
		}
	})
	clus.Sim.After(5*time.Millisecond, func() { h.World.Kill(3) })
	clus.Sim.Run()
	ranks := ReadRanks(clus, final)
	ref := RefPageRank(p, iters)
	if len(ranks) != p.Graph.Nodes {
		t.Fatalf("%d nodes in output, want %d (final=%q)", len(ranks), p.Graph.Nodes, final)
	}
	for i, want := range ref {
		if math.Abs(ranks[i]-want) > 1e-6 {
			t.Fatalf("rank[%d] = %g, want %g", i, ranks[i], want)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	clus := testCluster()
	p := DefaultBFS()
	p.Graph = smallGraph()
	GenBFSInput(clus, "in/bfs", p)
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelNone}
		out, err := BFSDriver(app, base, "bfs", "in/bfs", 30, p)
		if err == nil {
			final = out
		}
	})
	clus.Sim.Run()
	for _, res := range h.Results() {
		if res.Aborted {
			t.Fatal("a level aborted")
		}
	}
	dist := ReadDistances(clus, final)
	ref := RefBFS(p)
	for i, want := range ref {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSUnderContinuousFailures(t *testing.T) {
	clus := testCluster()
	p := DefaultBFS()
	p.Graph = smallGraph()
	GenBFSInput(clus, "in/bfsf", p)
	var final string
	h := core.Launch(clus, 8, func(app *core.App) {
		base := core.Spec{Model: core.ModelDetectResumeWC, CkptInterval: 10}
		out, err := BFSDriver(app, base, "bfsf", "in/bfsf", 30, p)
		if err == nil {
			final = out
		}
	})
	h.Clus.Sim.After(4*time.Millisecond, func() { h.World.Kill(2) })
	h.Clus.Sim.After(9*time.Millisecond, func() { h.World.Kill(6) })
	clus.Sim.Run()
	dist := ReadDistances(clus, final)
	ref := RefBFS(p)
	for i, want := range ref {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if h.World.AliveCount() != 6 {
		t.Fatalf("alive = %d, want 6", h.World.AliveCount())
	}
}

func TestBlastMatchesExpectation(t *testing.T) {
	clus := testCluster()
	p := DefaultBlast()
	p.Queries = 300
	p.Chunks = 12
	p.CostBase = 1e-4
	p.CostPerAA = 1e-7
	expect := GenBlastInput(clus, "in/blast", p)
	spec := BlastSpec("blast", "in/blast", 8, p)
	h := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if h.Result().Aborted {
		t.Fatal("job aborted")
	}
	got := ReadBlastHits(clus, "blast", 8)
	if len(got) != p.Queries {
		t.Fatalf("%d queries in output, want %d", len(got), p.Queries)
	}
	for q, hits := range expect {
		if got[q] != hits {
			t.Fatalf("hits[%s] = %q, want %q", q, got[q], hits)
		}
	}
}

func TestBlastCheckpointRestart(t *testing.T) {
	clus := testCluster()
	p := DefaultBlast()
	p.Queries = 300
	p.Chunks = 12
	p.CostBase = 1e-4
	p.CostPerAA = 1e-7
	expect := GenBlastInput(clus, "in/blastcr", p)
	spec := BlastSpec("blastcr", "in/blastcr", 8, p)
	spec.Model = core.ModelCheckpointRestart
	spec.CkptInterval = 5

	h := core.RunSingle(clus, spec)
	fired := false
	h.OnPhase(func(wr int, ph core.Phase) {
		if !fired && ph == core.PhaseMap && wr == 1 {
			fired = true
			clus.Sim.After(2*time.Millisecond, func() { h.World.Kill(1) })
		}
	})
	clus.Sim.Run()
	if !h.Result().Aborted {
		t.Fatal("first attempt should abort")
	}

	spec.Resume = true
	h2 := core.RunSingle(clus, spec)
	clus.Sim.Run()
	if h2.Result().Aborted {
		t.Fatal("restart aborted")
	}
	got := ReadBlastHits(clus, "blastcr", 8)
	for q, hits := range expect {
		if got[q] != hits {
			t.Fatalf("hits[%s] = %q, want %q", q, got[q], hits)
		}
	}
}

func TestGraphGeneratorDeterministic(t *testing.T) {
	g := smallGraph()
	for i := 0; i < g.Nodes; i += 17 {
		a := g.Adjacency(i)
		b := g.Adjacency(i)
		if strconv.Itoa(len(a)) != strconv.Itoa(len(b)) {
			t.Fatal("nondeterministic adjacency")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("nondeterministic adjacency order")
			}
		}
		if len(a) == 0 {
			continue
		}
		for _, n := range a {
			if n < 0 || n >= g.Nodes || n == i {
				t.Fatalf("bad neighbour %d of %d", n, i)
			}
		}
	}
}

func TestWordcountCombinerEquivalence(t *testing.T) {
	p := smallWordcount()
	run := func(combine bool, kill bool, model core.FTModel) (map[string]int, int64) {
		clus := testCluster()
		name := "comb-" + strconv.FormatBool(combine) + "-" + strconv.FormatBool(kill) + "-" + model.String()
		GenCorpus(clus, "in/"+name, p)
		spec := WordcountSpec(name, "in/"+name, 8, p)
		spec.Model = core.ModelDetectResumeWC
		spec.FTModel = model
		spec.CkptInterval = 10
		if combine {
			spec = WithCombiner(spec, p)
		}
		h := core.RunSingle(clus, spec)
		if kill {
			clus.Sim.After(2*time.Millisecond, func() { h.World.Kill(3) })
		}
		clus.Sim.Run()
		if h.Result().Aborted {
			t.Fatal("aborted")
		}
		var shuffleBytes int64
		for _, m := range h.Result().Ranks {
			if m != nil {
				shuffleBytes += m.ShuffleBytes
			}
		}
		parts := 8
		if model == core.FTModelReplicate {
			// Only the primary slots partition the key space (rank 3, the
			// kill victim, is one of them, so the kill forces a promotion).
			parts = sched.PairRanks(8, clus.Cfg.PPN, len(clus.Nodes), 1).P
		}
		return ReadWordCounts(clus, name, parts), shuffleBytes
	}
	plain, plainBytes := run(false, false, core.FTModelCR)
	comb, combBytes := run(true, false, core.FTModelCR)
	combKill, _ := run(true, true, core.FTModelCR)
	combKillRep, _ := run(true, true, core.FTModelReplicate)
	if len(plain) != len(comb) {
		t.Fatalf("combiner changed word set: %d vs %d", len(comb), len(plain))
	}
	for w, n := range plain {
		if comb[w] != n {
			t.Fatalf("combiner changed count[%s]: %d vs %d", w, comb[w], n)
		}
		if combKill[w] != n {
			t.Fatalf("combiner+failure changed count[%s]: %d vs %d", w, combKill[w], n)
		}
		if combKillRep[w] != n {
			t.Fatalf("combiner+failure under replication changed count[%s]: %d vs %d", w, combKillRep[w], n)
		}
	}
	if combBytes >= plainBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d bytes", combBytes, plainBytes)
	}
}
