package trace

import (
	"time"

	"ftmrmpi/internal/metrics"
)

// Phase identifies one stage of a job's lifetime for time decomposition
// (core.Phase; the runner tallies its time per phase).
type Phase string

const (
	PhaseInit     Phase = "init"     // startup: input split and task-table build
	PhaseMap      Phase = "map"      // map tasks (read, map, emit, checkpoint)
	PhaseShuffle  Phase = "shuffle"  // all-to-all exchange of KV pairs
	PhaseConvert  Phase = "merge"    // KV→KMV conversion; the paper labels it "merge"
	PhaseReduce   Phase = "reduce"   // reduce over grouped keys and output write
	PhaseRecovery Phase = "recovery" // post-failure shrink, restore, and reprocess
)

// RecoveryBreakdown decomposes recovery time the way Figure 3 does.
type RecoveryBreakdown struct {
	Init      time.Duration // coordination: shrink/agree/table rebuild
	LoadCkpt  time.Duration // reading checkpoint data
	Skip      time.Duration // re-reading input and skipping committed records
	Reprocess time.Duration // re-executing uncommitted work
}

// Total returns the summed recovery time.
func (r RecoveryBreakdown) Total() time.Duration {
	return r.Init + r.LoadCkpt + r.Skip + r.Reprocess
}

// Tally is one job runner's accounting on one rank: the figures' time and
// volume decomposition. A fact that has an event (a phase end, a recovery
// stage, a checkpoint commit, load or stall, a user counter) is tallied by
// the Recorder call that emits it, on the tally the runner bound with
// BindRunner; the rest are plain field adds by their one writer.
type Tally struct {
	CPUMain   time.Duration // main-thread compute
	CPUCopier time.Duration // copier/agent-thread compute (same core)
	IOWait    time.Duration // storage waits (main thread)
	CopierIO  time.Duration // storage waits (copier thread)
	NetWait   time.Duration // time inside communication calls

	PhaseTime map[Phase]time.Duration // wall time this rank spent per phase
	Recovery  RecoveryBreakdown       // Figure 3 recovery-time decomposition

	// Counters holds user-defined counters (TaskContext.AddCounter) and the
	// runner's internal ones (shuf_*_us, ckpt_corrupt).
	Counters map[string]int64

	RecordsMapped   int64 // input records run through the mapper
	RecordsSkipped  int64 // committed records skipped during recovery re-read
	RecordsRestored int64 // records restored from checkpoint frames
	GroupsReduced   int64 // key groups run through the reducer
	CkptFrames      int64 // checkpoint frames written
	CkptBytes       int64 // checkpoint bytes written
	ShuffleBytes    int64 // bytes sent during the shuffle exchange
	RecoveredFrames int64 // checkpoint frames read back during recovery
	RecoveredBytes  int64 // checkpoint bytes read back during recovery
}

// tallySeries is one registry counter fed by a tally accumulator's growth.
type tallySeries struct {
	c    *metrics.Counter
	cur  func() int64
	secs bool // the accumulator is a time.Duration, exported in seconds
	last int64
}

// mirrorTally binds the per-rank series of t's accumulators and registers a
// snapshot hook that pushes each one's growth since the previous snapshot.
// Every runner mirrors its own tally, so a rank whose runner is replaced
// (a job restart or a later job) keeps accumulating into the same series.
func (m *instruments) mirrorTally(t *Tally) {
	reg, rank := m.reg, m.rank
	var ss []*tallySeries
	add := func(name, help string, secs bool, cur func() int64) {
		ss = append(ss, &tallySeries{c: reg.Counter(name, help, rank), cur: cur, secs: secs})
	}
	dur := func(name, help string, d *time.Duration) {
		add(name, help, true, func() int64 { return int64(*d) })
	}
	count := func(name, help string, n *int64) {
		add(name, help, false, func() int64 { return *n })
	}
	dur(metrics.MCPUMain, "Main-thread CPU seconds.", &t.CPUMain)
	dur(metrics.MCPUCopier, "Copier-thread CPU seconds (same core).", &t.CPUCopier)
	dur(metrics.MIOWait, "Main-thread storage wait seconds.", &t.IOWait)
	dur(metrics.MCopierIO, "Copier-thread storage wait seconds.", &t.CopierIO)
	dur(metrics.MNetWait, "Seconds inside communication calls.", &t.NetWait)
	dur(metrics.MRecoveryInit, "Recovery seconds: shrink/agree/table rebuild.", &t.Recovery.Init)
	dur(metrics.MRecoveryLoad, "Recovery seconds: reading checkpoint data.", &t.Recovery.LoadCkpt)
	dur(metrics.MRecoverySkip, "Recovery seconds: skipping committed records.", &t.Recovery.Skip)
	dur(metrics.MRecoveryReprocess, "Recovery seconds: re-executing lost work.", &t.Recovery.Reprocess)
	add(metrics.MRecoverySeconds, "Seconds spent in the recovery phase.", true,
		func() int64 { return int64(t.PhaseTime[PhaseRecovery]) })
	count("ftmr_records_mapped", "Input records mapped.", &t.RecordsMapped)
	count("ftmr_records_skipped", "Committed records skipped during recovery.", &t.RecordsSkipped)
	count("ftmr_records_restored", "Records restored from checkpoint frames.", &t.RecordsRestored)
	count("ftmr_groups_reduced", "Key groups reduced.", &t.GroupsReduced)
	count("ftmr_ckpt_frames", "Checkpoint frames written.", &t.CkptFrames)
	count("ftmr_ckpt_bytes", "Checkpoint bytes written.", &t.CkptBytes)
	count(metrics.MShuffleBytes, "Shuffle bytes received.", &t.ShuffleBytes)
	count("ftmr_recovered_frames", "Checkpoint frames replayed during recovery.", &t.RecoveredFrames)
	count("ftmr_recovered_bytes", "Checkpoint bytes replayed during recovery.", &t.RecoveredBytes)
	reg.OnSample(func() {
		for _, s := range ss {
			cur := s.cur()
			if cur == s.last {
				continue
			}
			if s.secs {
				s.c.Add(time.Duration(cur - s.last).Seconds())
			} else {
				s.c.Add(float64(cur - s.last))
			}
			s.last = cur
		}
	})
}
