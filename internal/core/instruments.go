package core

import (
	"time"

	"ftmrmpi/internal/metrics"
)

// rankMirror is the delta state behind one mirrorRankMetrics hook.
type rankMirror struct {
	m    *RankMetrics
	last struct {
		cpuMain, cpuCopier, ioWait, copierIO, netWait            time.Duration
		recInit, recLoad, recSkip, recReprocess, recPhase        time.Duration
		mapped, skipped, restored, groups                        int64
		ckptFrames, ckptBytes, shuffleBytes, recFrames, recBytes int64
	}
}

// mirrorRankMetrics registers an OnSample hook that pushes the deltas of a
// runner's RankMetrics accumulators (which have many mutation sites) into
// per-rank registry counters. Each runner registers its own mirror, so job
// restarts — which replace the RankMetrics instance — accumulate correctly.
func mirrorRankMetrics(reg *metrics.Registry, m *RankMetrics, rank int) {
	if reg == nil {
		return
	}
	cpuMain := reg.Counter(metrics.MCPUMain, "Main-thread CPU seconds.", rank)
	cpuCopier := reg.Counter(metrics.MCPUCopier, "Copier-thread CPU seconds (same core).", rank)
	ioWait := reg.Counter(metrics.MIOWait, "Main-thread storage wait seconds.", rank)
	copierIO := reg.Counter(metrics.MCopierIO, "Copier-thread storage wait seconds.", rank)
	netWait := reg.Counter(metrics.MNetWait, "Seconds inside communication calls.", rank)
	recInit := reg.Counter(metrics.MRecoveryInit, "Recovery seconds: shrink/agree/table rebuild.", rank)
	recLoad := reg.Counter(metrics.MRecoveryLoad, "Recovery seconds: reading checkpoint data.", rank)
	recSkip := reg.Counter(metrics.MRecoverySkip, "Recovery seconds: skipping committed records.", rank)
	recReprocess := reg.Counter(metrics.MRecoveryReprocess, "Recovery seconds: re-executing lost work.", rank)
	recPhase := reg.Counter(metrics.MRecoverySeconds, "Seconds spent in the recovery phase.", rank)
	mapped := reg.Counter("ftmr_records_mapped", "Input records mapped.", rank)
	skipped := reg.Counter("ftmr_records_skipped", "Committed records skipped during recovery.", rank)
	restored := reg.Counter("ftmr_records_restored", "Records restored from checkpoint frames.", rank)
	groups := reg.Counter("ftmr_groups_reduced", "Key groups reduced.", rank)
	ckptFrames := reg.Counter("ftmr_ckpt_frames", "Checkpoint frames written.", rank)
	ckptBytes := reg.Counter("ftmr_ckpt_bytes", "Checkpoint bytes written.", rank)
	shuffleBytes := reg.Counter(metrics.MShuffleBytes, "Shuffle bytes received.", rank)
	recFrames := reg.Counter("ftmr_recovered_frames", "Checkpoint frames replayed during recovery.", rank)
	recBytes := reg.Counter("ftmr_recovered_bytes", "Checkpoint bytes replayed during recovery.", rank)

	mr := &rankMirror{m: m}
	pushDur := func(c *metrics.Counter, cur time.Duration, last *time.Duration) {
		if cur != *last {
			c.Add((cur - *last).Seconds())
			*last = cur
		}
	}
	pushInt := func(c *metrics.Counter, cur int64, last *int64) {
		if cur != *last {
			c.Add(float64(cur - *last))
			*last = cur
		}
	}
	reg.OnSample(func() {
		l := &mr.last
		pushDur(cpuMain, mr.m.CPUMain, &l.cpuMain)
		pushDur(cpuCopier, mr.m.CPUCopier, &l.cpuCopier)
		pushDur(ioWait, mr.m.IOWait, &l.ioWait)
		pushDur(copierIO, mr.m.CopierIO, &l.copierIO)
		pushDur(netWait, mr.m.NetWait, &l.netWait)
		pushDur(recInit, mr.m.Recovery.Init, &l.recInit)
		pushDur(recLoad, mr.m.Recovery.LoadCkpt, &l.recLoad)
		pushDur(recSkip, mr.m.Recovery.Skip, &l.recSkip)
		pushDur(recReprocess, mr.m.Recovery.Reprocess, &l.recReprocess)
		pushDur(recPhase, mr.m.PhaseTime[PhaseRecovery], &l.recPhase)
		pushInt(mapped, mr.m.RecordsMapped, &l.mapped)
		pushInt(skipped, mr.m.RecordsSkipped, &l.skipped)
		pushInt(restored, mr.m.RecordsRestored, &l.restored)
		pushInt(groups, mr.m.GroupsReduced, &l.groups)
		pushInt(ckptFrames, mr.m.CkptFrames, &l.ckptFrames)
		pushInt(ckptBytes, mr.m.CkptBytes, &l.ckptBytes)
		pushInt(shuffleBytes, mr.m.ShuffleBytes, &l.shuffleBytes)
		pushInt(recFrames, mr.m.RecoveredFrames, &l.recFrames)
		pushInt(recBytes, mr.m.RecoveredBytes, &l.recBytes)
	})
}

// ExportResultMetrics publishes job-outcome signals — missing ranks, failed
// ranks, aborted attempts — as world-scoped gauges, so the health report can
// distinguish a degraded-but-successful run from a clean one. Call it after
// the run, before the final snapshot. Nil-safe.
func ExportResultMetrics(reg *metrics.Registry, results []*Result) {
	if reg == nil {
		return
	}
	missing, failed, aborted := 0, 0, 0
	for _, res := range results {
		if res == nil {
			continue
		}
		missing += len(res.MissingRanks())
		failed += len(res.FailedRanks)
		if res.Aborted {
			aborted++
		}
	}
	reg.Gauge(metrics.MMissingRanks,
		"World slots with no surviving per-rank metrics across results.", -1).Set(float64(missing))
	reg.Gauge(metrics.MFailedRanks,
		"Ranks lost to failures across results.", -1).Set(float64(failed))
	reg.Gauge(metrics.MJobsAborted,
		"Job attempts that ended aborted.", -1).Set(float64(aborted))
}
