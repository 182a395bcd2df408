package core

import (
	"time"

	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
)

// Phase identifies one stage of a job's lifetime for time decomposition
// (used by the paper's Figures 7, 9, and 10).
type Phase = trace.Phase

const (
	PhaseInit     = trace.PhaseInit     // startup: input split and task-table build
	PhaseMap      = trace.PhaseMap      // map tasks (read, map, emit, checkpoint)
	PhaseShuffle  = trace.PhaseShuffle  // all-to-all exchange of KV pairs
	PhaseConvert  = trace.PhaseConvert  // KV→KMV conversion; the paper labels it "merge"
	PhaseReduce   = trace.PhaseReduce   // reduce over grouped keys and output write
	PhaseRecovery = trace.PhaseRecovery // post-failure shrink, restore, and reprocess
)

// RecoveryBreakdown decomposes recovery time the way Figure 3 does.
type RecoveryBreakdown = trace.RecoveryBreakdown

// RankMetrics is one rank's accounting for a job attempt: the runner's
// trace.Tally, which the rank's Recorder updates, plus the row's identity.
type RankMetrics struct {
	WorldRank int // launch (world) rank this row describes
	trace.Tally
}

func newRankMetrics(worldRank int) *RankMetrics {
	return &RankMetrics{
		WorldRank: worldRank,
		Tally: trace.Tally{
			PhaseTime: make(map[Phase]time.Duration),
			Counters:  make(map[string]int64),
		},
	}
}

// Result reports the outcome of one job attempt.
type Result struct {
	Spec    Spec          // the job specification this attempt executed
	Start   time.Duration // virtual submission time
	End     time.Duration // virtual completion/abort time
	Aborted bool          // true when the attempt died (needs restart)
	// FailedRanks lists world ranks that were lost during the attempt.
	FailedRanks []int
	// Ranks holds per-rank metrics, indexed by launch (world) rank.
	Ranks []*RankMetrics
	// OutputPaths lists the PFS paths of the reduce output partitions.
	OutputPaths []string
}

// Elapsed returns the attempt's virtual duration.
func (r *Result) Elapsed() time.Duration { return r.End - r.Start }

// PhaseTotal sums a phase's time across all ranks (the "aggregated time for
// all processes" of Figure 10).
func (r *Result) PhaseTotal(ph Phase) time.Duration {
	var total time.Duration
	for _, m := range r.Ranks {
		if m != nil {
			total += m.PhaseTime[ph]
		}
	}
	return total
}

// MaxPhase returns the maximum single-rank time for a phase.
func (r *Result) MaxPhase(ph Phase) time.Duration {
	var max time.Duration
	for _, m := range r.Ranks {
		if m != nil && m.PhaseTime[ph] > max {
			max = m.PhaseTime[ph]
		}
	}
	return max
}

// TotalCPUMain / TotalCPUCopier / TotalIOWait aggregate across ranks.
func (r *Result) TotalCPUMain() time.Duration {
	var t time.Duration
	for _, m := range r.Ranks {
		if m != nil {
			t += m.CPUMain
		}
	}
	return t
}

// TotalCPUCopier sums copier CPU time across ranks.
func (r *Result) TotalCPUCopier() time.Duration {
	var t time.Duration
	for _, m := range r.Ranks {
		if m != nil {
			t += m.CPUCopier
		}
	}
	return t
}

// TotalIOWait sums main-thread I/O wait across ranks.
func (r *Result) TotalIOWait() time.Duration {
	var t time.Duration
	for _, m := range r.Ranks {
		if m != nil {
			t += m.IOWait
		}
	}
	return t
}

// MissingRanks returns the launch ranks whose metrics slot is nil — ranks
// that died before reporting, or were never collected. Aggregations
// (PhaseTotal, Counter, ...) silently skip these slots; callers judging a
// run's completeness should consult this list.
func (r *Result) MissingRanks() []int {
	var out []int
	for i, m := range r.Ranks {
		if m == nil {
			out = append(out, i)
		}
	}
	return out
}

// Counter sums a user counter across ranks.
func (r *Result) Counter(name string) int64 {
	var t int64
	for _, m := range r.Ranks {
		if m != nil {
			t += m.Counters[name]
		}
	}
	return t
}

// RecoveryTotal aggregates recovery breakdowns across ranks.
func (r *Result) RecoveryTotal() RecoveryBreakdown {
	var out RecoveryBreakdown
	for _, m := range r.Ranks {
		if m == nil {
			continue
		}
		out.Init += m.Recovery.Init
		out.LoadCkpt += m.Recovery.LoadCkpt
		out.Skip += m.Recovery.Skip
		out.Reprocess += m.Recovery.Reprocess
	}
	return out
}

// ResultSummary is a JSON-friendly projection of a Result (Spec holds
// factory functions and cannot be marshaled directly).
type ResultSummary struct {
	Job         string  `json:"job"`                    // job name from the Spec
	Model       string  `json:"model"`                  // execution model the attempt ran under
	Ranks       int     `json:"ranks"`                  // launch world size
	Aborted     bool    `json:"aborted"`                // true when the attempt died before finishing
	ElapsedSec  float64 `json:"elapsed_sec"`            // virtual makespan in seconds
	FailedRanks []int   `json:"failed_ranks,omitempty"` // world ranks lost during the attempt
	// MissingRanks lists launch ranks with no metrics (see MissingRanks()).
	MissingRanks []int              `json:"missing_ranks,omitempty"`
	PhaseMaxSec  map[string]float64 `json:"phase_max_sec"`      // per-phase max single-rank seconds
	PhaseAggSec  map[string]float64 `json:"phase_agg_sec"`      // per-phase seconds summed across ranks
	Recovery     map[string]float64 `json:"recovery_sec"`       // Figure 3 recovery breakdown, seconds
	Counters     map[string]int64   `json:"counters,omitempty"` // user counters summed across ranks
	CkptBytes    int64              `json:"ckpt_bytes"`         // checkpoint bytes written, all ranks
	CkptFrames   int64              `json:"ckpt_frames"`        // checkpoint frames written, all ranks
}

// Summary builds the JSON-friendly projection.
func (r *Result) Summary() ResultSummary {
	s := ResultSummary{
		Job:          r.Spec.JobID,
		Model:        r.Spec.Model.String(),
		Ranks:        r.Spec.NumRanks,
		Aborted:      r.Aborted,
		ElapsedSec:   r.Elapsed().Seconds(),
		FailedRanks:  r.FailedRanks,
		MissingRanks: r.MissingRanks(),
		PhaseMaxSec:  make(map[string]float64),
		PhaseAggSec:  make(map[string]float64),
		Counters:     make(map[string]int64),
	}
	for _, ph := range []Phase{PhaseInit, PhaseMap, PhaseShuffle, PhaseConvert, PhaseReduce, PhaseRecovery} {
		if d := r.MaxPhase(ph); d > 0 {
			s.PhaseMaxSec[string(ph)] = d.Seconds()
			s.PhaseAggSec[string(ph)] = r.PhaseTotal(ph).Seconds()
		}
	}
	rb := r.RecoveryTotal()
	s.Recovery = map[string]float64{
		"init":      rb.Init.Seconds(),
		"load_ckpt": rb.LoadCkpt.Seconds(),
		"skip":      rb.Skip.Seconds(),
		"reprocess": rb.Reprocess.Seconds(),
	}
	for _, m := range r.Ranks {
		if m == nil {
			continue
		}
		s.CkptBytes += m.CkptBytes
		s.CkptFrames += m.CkptFrames
		for k, v := range m.Counters {
			s.Counters[k] += v
		}
	}
	return s
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
