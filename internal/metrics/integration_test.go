// Integration tests for the metrics plane against real simulated runs: the
// exported OpenMetrics text must be byte-identical across same-seed chaos
// reruns, the registry's world aggregates must agree with the independently
// maintained RankMetrics accumulators and the trace summarizer on every
// shared quantity, and the SLO health gate must pass with defaults on the
// standard failover run while demonstrably firing when tightened.
package metrics_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

const intParts = 8

func intCorpus() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 24
	p.Lines = 24
	p.WordsLine = 4
	p.Vocab = 300
	return p
}

// intCluster builds an 8-rank cluster with tracing and a live registry.
func intCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = 4
	cfg.PPN = 2
	clus := cluster.New(cfg)
	clus.Trace = trace.New(clus.Sim, 1<<20)
	clus.Metrics = metrics.New(clus.Sim)
	return clus
}

func intSpec(name string, p workloads.WordcountParams) core.Spec {
	spec := workloads.WordcountSpec(name, "in/"+name, intParts, p)
	spec.Model = core.ModelDetectResumeWC
	spec.CkptInterval = 25
	spec.LoadBalance = true
	return spec
}

// stdCorpus and stdSpec mirror the ftmr-sim defaults (scaled down in chunk
// count for test speed, but with the standard records-per-checkpoint
// cadence) so the health-gate assertions measure the documented standard
// configuration, not the deliberately checkpoint-heavy chaos one.
func stdCorpus() workloads.WordcountParams {
	p := workloads.DefaultWordcount()
	p.Chunks = 96
	p.Vocab = 5000
	return p
}

func stdSpec(name string, p workloads.WordcountParams) core.Spec {
	spec := intSpec(name, p)
	spec.CkptInterval = 100
	return spec
}

// finalSnapshot ends a run the way ftmr-sim does: export result-level
// gauges, then take the terminal snapshot.
func finalSnapshot(clus *cluster.Cluster, results []*core.Result) metrics.Snapshot {
	core.ExportResultMetrics(clus.Metrics, results)
	return clus.Metrics.Snapshot()
}

// chaosExposition runs one seeded chaos campaign (random kills plus storage
// faults on every tier) and returns the final exposition bytes. Untraced,
// the registry is fed by Recorders that carry no event ring.
func chaosExposition(t *testing.T, seed int64, window time.Duration, traced bool) []byte {
	t.Helper()
	clus := intCluster()
	if !traced {
		clus.Trace = nil
	}
	p := intCorpus()
	workloads.GenCorpus(clus, "in/chaos", p)
	failure.StorageFaults(clus, seed)
	h := core.RunSingle(clus, intSpec("chaos", p))
	failure.Chaos(h, seed, 2, window)
	sampler := metrics.StartSampler(clus.Metrics, 50*time.Millisecond)
	clus.Sim.Run()
	if res := h.Result(); res == nil || res.Aborted {
		t.Fatalf("seed %d: chaos run aborted: %+v", seed, res)
	}
	core.ExportResultMetrics(clus.Metrics, h.Results())
	snaps := sampler.Final()
	var buf bytes.Buffer
	if err := metrics.WriteOpenMetrics(&buf, snaps[len(snaps)-1]); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosSnapshotDeterminism runs the same seeded chaos campaign twice and
// requires byte-identical OpenMetrics exposition — the metrics plane must
// not perturb or observe anything outside virtual time. A third run with
// tracing off must export the same bytes: the registry does not depend on
// the trace plane. The export must also parse back cleanly.
func TestChaosSnapshotDeterminism(t *testing.T) {
	// Failure-free baseline fixes the kill window, like the chaos harness.
	base := intCluster()
	p := intCorpus()
	workloads.GenCorpus(base, "in/chaos", p)
	hb := core.RunSingle(base, intSpec("chaos", p))
	base.Sim.Run()
	if res := hb.Result(); res == nil || res.Aborted {
		t.Fatalf("baseline aborted: %+v", res)
	}
	window := base.Sim.Now() * 6 / 10

	a := chaosExposition(t, 7, window, true)
	b := chaosExposition(t, 7, window, true)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed chaos expositions differ:\n--- A ---\n%s\n--- B ---\n%s", a, b)
	}
	if c := chaosExposition(t, 7, window, false); !bytes.Equal(a, c) {
		t.Fatalf("untraced chaos exposition differs:\n--- A ---\n%s\n--- C ---\n%s", a, c)
	}
	snap, err := metrics.ParseOpenMetrics(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("chaos exposition does not parse: %v", err)
	}
	if len(snap.Families) == 0 || snap.VTSeconds <= 0 {
		t.Fatalf("chaos exposition empty: vt=%v, %d families", snap.VTSeconds, len(snap.Families))
	}
	// Storage chaos must have left injection evidence in the export.
	var injected float64
	for _, name := range []string{"ftmr_storage_torn_writes", "ftmr_storage_bit_flips",
		"ftmr_storage_read_errors", "ftmr_storage_read_spikes", "ftmr_storage_write_spikes"} {
		injected += snap.Total(name)
	}
	if injected == 0 {
		t.Fatalf("no storage faults recorded in chaos exposition")
	}
	if snap.Total("ftmr_failures_injected") == 0 {
		t.Fatalf("no process kills recorded in chaos exposition")
	}
}

// secondsEq compares a registry total (accumulated as per-snapshot deltas of
// float seconds) with a duration total, to float accumulation tolerance.
func secondsEq(got float64, want time.Duration) bool {
	return math.Abs(got-want.Seconds()) < 1e-9
}

// mirroredSums sums, per mirrored family and rank, every Result's
// RankMetrics accumulator that the registry mirrors: counts exact,
// durations as durations.
func mirroredSums(results []*core.Result) (counts map[string]map[int]int64, durs map[string]map[int]time.Duration) {
	counts, durs = map[string]map[int]int64{}, map[string]map[int]time.Duration{}
	for _, res := range results {
		for _, m := range res.Ranks {
			if m == nil {
				continue
			}
			for family, v := range map[string]int64{
				"ftmr_records_mapped":   m.RecordsMapped,
				"ftmr_records_skipped":  m.RecordsSkipped,
				"ftmr_records_restored": m.RecordsRestored,
				"ftmr_groups_reduced":   m.GroupsReduced,
				"ftmr_ckpt_frames":      m.CkptFrames,
				"ftmr_ckpt_bytes":       m.CkptBytes,
				metrics.MShuffleBytes:   m.ShuffleBytes,
				"ftmr_recovered_frames": m.RecoveredFrames,
				"ftmr_recovered_bytes":  m.RecoveredBytes,
			} {
				if counts[family] == nil {
					counts[family] = map[int]int64{}
				}
				counts[family][m.WorldRank] += v
			}
			for family, d := range map[string]time.Duration{
				metrics.MCPUMain:           m.CPUMain,
				metrics.MCPUCopier:         m.CPUCopier,
				metrics.MIOWait:            m.IOWait,
				metrics.MCopierIO:          m.CopierIO,
				metrics.MNetWait:           m.NetWait,
				metrics.MRecoveryInit:      m.Recovery.Init,
				metrics.MRecoveryLoad:      m.Recovery.LoadCkpt,
				metrics.MRecoverySkip:      m.Recovery.Skip,
				metrics.MRecoveryReprocess: m.Recovery.Reprocess,
				metrics.MRecoverySeconds:   m.PhaseTime[core.PhaseRecovery],
			} {
				if durs[family] == nil {
					durs[family] = map[int]time.Duration{}
				}
				durs[family][m.WorldRank] += d
			}
		}
	}
	return counts, durs
}

// TestAggregatesAgreeWithRankMetricsAndTrace checks every quantity the
// metrics plane shares with the two older observability surfaces. Each
// mirrored family's registry series must equal, rank by rank, the sum over
// every Result's RankMetrics: on a clean wordcount, and on a killed
// checkpoint/restart attempt plus its Resume relaunch on the same cluster,
// where two runner tallies feed each rank's series. Against the trace
// summarizer — which sees the same Recorder calls as the registry — it
// checks the clean run and two failover runs.
func TestAggregatesAgreeWithRankMetricsAndTrace(t *testing.T) {
	clus := intCluster()
	p := stdCorpus()
	workloads.GenCorpus(clus, "in/agree", p)
	h := core.RunSingle(clus, stdSpec("agree", p))
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("run aborted: %+v", res)
	}
	snap := finalSnapshot(clus, h.Results())

	// Versus RankMetrics: integer counts must be exact, durations within
	// float tolerance.
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (metrics.Snapshot, []*core.Result)
	}{
		{"rankmetrics-clean", func(*testing.T) (metrics.Snapshot, []*core.Result) { return snap, h.Results() }},
		{"rankmetrics-cr-restart", func(t *testing.T) (metrics.Snapshot, []*core.Result) {
			clus := intCluster()
			workloads.GenCorpus(clus, "in/agree", p)
			spec := stdSpec("agree", p)
			spec.Model = core.ModelCheckpointRestart
			h := core.RunSingle(clus, spec)
			failure.KillOnPhase(h, 3, core.PhaseReduce, time.Millisecond)
			clus.Sim.Run()
			if res := h.Result(); res == nil || !res.Aborted {
				t.Fatalf("killed attempt did not abort: %+v", res)
			}
			spec.Resume = true
			h2 := core.RunSingle(clus, spec)
			clus.Sim.Run()
			if res := h2.Result(); res == nil || res.Aborted {
				t.Fatalf("resumed attempt aborted: %+v", res)
			}
			results := append(h.Results(), h2.Results()...)
			return finalSnapshot(clus, results), results
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, results := tc.run(t)
			counts, durs := mirroredSums(results)
			for family, byRank := range counts {
				for rank, want := range byRank {
					if got, ok := snap.Series(family, metrics.RankLabel(rank)); !ok || got != float64(want) {
						t.Errorf("%s rank %d: registry %v, RankMetrics %d", family, rank, got, want)
					}
				}
			}
			for family, byRank := range durs {
				for rank, want := range byRank {
					if got, ok := snap.Series(family, metrics.RankLabel(rank)); !ok || !secondsEq(got, want) {
						t.Errorf("%s rank %d: registry %v, RankMetrics %v", family, rank, got, want)
					}
				}
			}
			if tc.name == "rankmetrics-cr-restart" && counts["ftmr_recovered_frames"][0] == 0 {
				t.Errorf("resumed attempt replayed no checkpoint frames on rank 0")
			}
		})
	}

	// Versus the trace summarizer, on the quantities both planes observe —
	// on this clean run and on failover runs under both execution models
	// (rank 3 killed in the map phase), where shadow-mirror copies are sends
	// on both planes.
	for _, tc := range []struct {
		name  string
		model core.FTModel
		kill  bool
	}{
		{"clean", core.FTModelCR, false},
		{"cr-kill", core.FTModelCR, true},
		{"replicate-kill", core.FTModelReplicate, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clus, snap := clus, snap
			if tc.kill {
				clus = intCluster()
				workloads.GenCorpus(clus, "in/agree", p)
				spec := stdSpec("agree", p)
				spec.FTModel = tc.model
				h := core.RunSingle(clus, spec)
				failure.KillOnPhase(h, 3, core.PhaseMap, time.Millisecond)
				clus.Sim.Run()
				if res := h.Result(); res == nil || res.Aborted {
					t.Fatalf("run aborted: %+v", res)
				}
				snap = finalSnapshot(clus, h.Results())
			}
			s := trace.Summarize(clus.Trace.Events())
			var wantSends, wantSendBytes, wantRecvs, wantRecvBytes, wantCommits int64
			for _, rs := range s.Ranks {
				wantSends += rs.Sends
				wantSendBytes += rs.SendBytes
				wantRecvs += rs.Recvs
				wantRecvBytes += rs.RecvBytes
				wantCommits += rs.TaskCommits
			}
			for _, tc := range []struct {
				family string
				want   int64
			}{
				{"ftmr_mpi_sends", wantSends},
				{"ftmr_mpi_send_bytes", wantSendBytes},
				{"ftmr_mpi_recvs", wantRecvs},
				{"ftmr_mpi_recv_bytes", wantRecvBytes},
				{"ftmr_task_commits", wantCommits},
			} {
				if got := snap.Total(tc.family); got != float64(tc.want) {
					t.Errorf("%s: registry %v, trace %d", tc.family, got, tc.want)
				}
			}
		})
	}

	// A clean run must evaluate healthy and undegraded with defaults.
	hl := metrics.Evaluate(snap, metrics.DefaultSLO())
	if hl.Breached() || hl.Degraded {
		t.Errorf("clean run unhealthy: breached=%v degraded=%v %+v",
			hl.Breached(), hl.Degraded, hl.Indicators)
	}
}

// TestHealthGateOnFailoverRun runs the standard single-failure wordcount
// (one rank killed at the map phase) and pins both gate outcomes the docs
// promise: default SLOs pass while marking the run degraded, and an
// artificially tight checkpoint-overhead bound fires.
func TestHealthGateOnFailoverRun(t *testing.T) {
	clus := intCluster()
	p := stdCorpus()
	workloads.GenCorpus(clus, "in/gate", p)
	h := core.RunSingle(clus, stdSpec("gate", p))
	failure.KillOnPhase(h, 3, core.PhaseMap, time.Millisecond)
	clus.Sim.Run()
	res := h.Result()
	if res == nil || res.Aborted {
		t.Fatalf("failover run aborted: %+v", res)
	}
	snap := finalSnapshot(clus, h.Results())

	hl := metrics.Evaluate(snap, metrics.DefaultSLO())
	if hl.Breached() {
		t.Fatalf("default SLOs breached on the standard failover run: %+v", hl.Indicators)
	}
	if !hl.Degraded {
		t.Fatalf("failover run not marked degraded: %+v", hl.Indicators)
	}
	if snap.Total(metrics.MRecoveryAttempts) == 0 {
		t.Fatalf("no recovery attempt recorded after a kill")
	}
	if snap.Total(metrics.MFailedRanks) == 0 {
		t.Fatalf("failed-rank marker not exported")
	}

	tight := metrics.DefaultSLO()
	tight.MaxCkptOverhead = 1e-9
	hl = metrics.Evaluate(snap, tight)
	if !hl.Breached() {
		t.Fatalf("tight ckpt-overhead SLO did not fire: %+v", hl.Indicators)
	}
}
