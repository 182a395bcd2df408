package main

import (
	"fmt"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/metrics"
)

// Micro-driver sizes. The KV holds one wc-deep-failover rank's map output
// (32 chunks x 128 lines x 8 words); the Alltoallv runs at wc-wide's world
// size; storage frames are checkpoint-frame sized appends.
const (
	microVtimeRounds   = 200000
	microA2ARanks      = 1000
	microA2AFanout     = 4
	microKVPairs       = 32 * 128 * 8
	microKVParts       = 64
	microKVReps        = 10
	microStorageFrames = 256
	microStorageKB     = 4
	microStorageBatch  = 40
)

// layerMetrics derives the per-layer metrics of a traced repetition and
// runs the layer micro-drivers; base is the untraced repetition the
// tracing overhead is measured against.
func layerMetrics(in *instance, st, base repStats) ([]metric, error) {
	if base.wallS <= 0 {
		return nil, fmt.Errorf("untraced repetition has no wall time")
	}
	shares, err := moduleShares(st.cpuProfile)
	if err != nil {
		return nil, err
	}
	dispatchNs := microVtime(microVtimeRounds)
	a2aUs, err := microAlltoallv(microA2ARanks, microA2AFanout)
	if err != nil {
		return nil, err
	}
	kv := microKV(in.seed, microKVPairs, microKVParts, microKVReps)
	appendNs, readNs, err := microStorage(microStorageFrames, microStorageKB, microStorageBatch)
	if err != nil {
		return nil, err
	}
	// The runtime's total is GOMAXPROCS x wall time; take the idle time out
	// so the share is of the CPU the process used.
	gcFrac := 0.0
	if busy := st.rt.totalCPU - st.rt.idleCPU; busy > 0 {
		gcFrac = st.rt.gcCPU / busy
	}
	ms := append(countMetrics(in),
		metric{"vtime.ns_per_event", base.wallS * 1e9 / float64(in.clus.Sim.EventsProcessed()), "ns"},
		metric{"vtime.dispatch_ns", dispatchNs, "ns"},
		metric{"mpi.alltoallv_us", a2aUs, "us"},
		metric{"kvbuf.add_ns_per_pair", kv.addNs, "ns"},
		metric{"kvbuf.convert4_ns_per_pair", kv.convert4Ns, "ns"},
		metric{"kvbuf.convert2_ns_per_pair", kv.convert2Ns, "ns"},
		metric{"kvbuf.convert_bytes_per_pair", kv.convertBytes, "bytes"},
		metric{"storage.append_ns_per_kb", appendNs, "ns"},
		metric{"storage.read_ns_per_kb", readNs, "ns"},
		metric{"trace.write_s", in.traceWrite.Seconds(), "s"},
		metric{"metrics.write_s", in.metricsWrite.Seconds(), "s"},
		metric{"go.gc_cycles", st.rt.gcCycles, "count"},
		metric{"go.gc_cpu_frac", gcFrac, "ratio"},
		metric{"go.mallocs", st.rt.mallocs, "count"},
		metric{"bench.trace_overhead", st.wallS / base.wallS, "ratio"},
	)
	for _, m := range cpuModules {
		ms = append(ms, metric{"cpu." + m, shares[m], "ratio"})
	}
	return ms, nil
}

// countMetrics are the per-layer counts, bytes and virtual times of a
// finished repetition: two runs with the same seed must reproduce them
// exactly.
func countMetrics(in *instance) []metric {
	snap := in.metricsSnap
	if !in.w.planes {
		snap = in.clus.Metrics.Snapshot()
	}
	phases := map[core.Phase]time.Duration{}
	var (
		cpuMain, cpuCopier, ioWait, copierIO, netWait time.Duration
		rec                                           core.RecoveryBreakdown
		sum                                           core.RankMetrics
		inputRecords                                  int64
	)
	for _, r := range in.h.Results() {
		for _, ph := range []core.Phase{core.PhaseInit, core.PhaseMap, core.PhaseShuffle, core.PhaseConvert, core.PhaseReduce, core.PhaseRecovery} {
			phases[ph] += r.MaxPhase(ph)
		}
		cpuMain += r.TotalCPUMain()
		cpuCopier += r.TotalCPUCopier()
		ioWait += r.TotalIOWait()
		rt := r.RecoveryTotal()
		rec.Init += rt.Init
		rec.LoadCkpt += rt.LoadCkpt
		rec.Skip += rt.Skip
		rec.Reprocess += rt.Reprocess
		for _, m := range r.Ranks {
			if m == nil {
				continue
			}
			copierIO += m.CopierIO
			netWait += m.NetWait
			sum.RecordsMapped += m.RecordsMapped
			sum.GroupsReduced += m.GroupsReduced
			sum.CkptFrames += m.CkptFrames
			sum.CkptBytes += m.CkptBytes
			sum.ShuffleBytes += m.ShuffleBytes
			sum.RecoveredBytes += m.RecoveredBytes
			sum.RecordsRestored += m.RecordsRestored
			sum.RecordsSkipped += m.RecordsSkipped
		}
		if in.w.wc != nil {
			inputRecords += int64(in.w.wc.Chunks * in.w.wc.Lines)
		} else {
			inputRecords += int64(in.w.pr.Graph.Nodes)
		}
	}
	useful := 0.0
	if sum.RecordsMapped > 0 {
		useful = float64(inputRecords) / float64(sum.RecordsMapped)
	}
	var traceEvents, traceDropped float64
	for _, r := range in.clus.Trace.Ranks() {
		d := in.clus.Trace.Dropped(r)
		traceEvents += float64(len(in.clus.Trace.EventsFor(r))) + float64(d)
		traceDropped += float64(d)
	}
	series := 0
	if in.w.planes {
		for _, f := range snap.Families {
			series += len(f.Series)
		}
	}
	return []metric{
		{"vtime.events", float64(in.clus.Sim.EventsProcessed()), "count"},
		{"vtime.procs", float64(len(in.clus.Sim.Procs())), "count"},

		{"mpi.sends", snap.Total("ftmr_mpi_sends"), "count"},
		{"mpi.send_bytes", snap.Total("ftmr_mpi_send_bytes"), "bytes"},
		{"mpi.collectives", snap.Total("ftmr_mpi_collectives"), "count"},
		{"mpi.shrinks", snap.Total("ftmr_mpi_shrinks"), "count"},
		{"mpi.agrees", snap.Total("ftmr_mpi_agrees"), "count"},
		{"mpi.net_wait_virt_s", netWait.Seconds(), "s"},
		{"mpi.shuffle_bytes", float64(sum.ShuffleBytes), "bytes"},

		{"core.phase.init_virt_s", phases[core.PhaseInit].Seconds(), "s"},
		{"core.phase.map_virt_s", phases[core.PhaseMap].Seconds(), "s"},
		{"core.phase.shuffle_virt_s", phases[core.PhaseShuffle].Seconds(), "s"},
		{"core.phase.merge_virt_s", phases[core.PhaseConvert].Seconds(), "s"},
		{"core.phase.reduce_virt_s", phases[core.PhaseReduce].Seconds(), "s"},
		{"core.phase.recovery_virt_s", phases[core.PhaseRecovery].Seconds(), "s"},
		{"core.cpu_main_virt_s", cpuMain.Seconds(), "s"},
		{"core.records_mapped", float64(sum.RecordsMapped), "count"},
		{"core.groups_reduced", float64(sum.GroupsReduced), "count"},
		{"core.task_commits", snap.Total("ftmr_task_commits"), "count"},
		{"core.map_useful_ratio", useful, "ratio"},

		{"core.ckpt_frames", float64(sum.CkptFrames), "count"},
		{"core.ckpt_bytes", float64(sum.CkptBytes), "bytes"},
		{"core.cpu_copier_virt_s", cpuCopier.Seconds(), "s"},
		{"core.recovered_bytes", float64(sum.RecoveredBytes), "bytes"},
		{"core.records_restored", float64(sum.RecordsRestored), "count"},
		{"core.records_skipped", float64(sum.RecordsSkipped), "count"},
		{"core.recovery.init_virt_s", rec.Init.Seconds(), "s"},
		{"core.recovery.load_virt_s", rec.LoadCkpt.Seconds(), "s"},
		{"core.recovery.skip_virt_s", rec.Skip.Seconds(), "s"},
		{"core.recovery.reprocess_virt_s", rec.Reprocess.Seconds(), "s"},
		{"core.recovery_reads.local", seriesValue(snap, metrics.MRecoveryReads, "replica-local"), "count"},
		{"core.recovery_reads.peer", seriesValue(snap, metrics.MRecoveryReads, "replica-peer"), "count"},
		{"core.recovery_reads.pfs", seriesValue(snap, metrics.MRecoveryReads, "pfs"), "count"},

		{"storage.io_wait_virt_s", ioWait.Seconds(), "s"},
		{"storage.copier_io_virt_s", copierIO.Seconds(), "s"},
		{"storage.resident_mb", float64(in.clus.FS.TotalBytes("")) / mib, "MB"},

		{"trace.events", traceEvents, "count"},
		{"trace.dropped", traceDropped, "count"},
		{"trace.jsonl_mb", float64(in.traceBytes) / mib, "MB"},

		{"metrics.series", float64(series), "count"},

		{"introspect.snapshots", float64(len(in.clus.Introspect.Snapshots())), "count"},
		{"introspect.stalls", float64(len(in.clus.Introspect.Stalls())), "count"},
	}
}

func seriesValue(s metrics.Snapshot, name, label string) float64 {
	v, _ := s.Series(name, label)
	return v
}
