package trace

import (
	"time"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
)

// Recovery read-path sources, in failover-chain order (RecoverySource). The
// literals are the ftmr_recovery_reads source labels the metrics health
// engine and the abl-restore ablation read.
const (
	SourceReplicaLocal = "replica-local"
	SourceReplicaPeer  = "replica-peer"
	SourcePFS          = "pfs"
)

// instruments is a Recorder's registry plane: the rank's pre-bound metric
// series. The fields of each scope stay nil until that scope is bound
// (BindMPI, BindRunner, BindReplication), and nil instruments no-op, so a
// snapshot only ever holds the series of the layers that ran on the rank.
// BindRunner also binds the series each runner's Tally is mirrored into
// (tally.go).
type instruments struct {
	reg  *metrics.Registry
	rank int

	// BindMPI.
	sends, sendBytes, recvs, recvBytes *metrics.Counter
	colls, revokes, shrinks, agrees    *metrics.Counter

	// BindRunner.
	mapTask, reducePart                       *metrics.Histogram
	taskCommits, recoveryAttempts             *metrics.Counter
	ckptWriteWait, ckptDrainWait, quarantines *metrics.Counter
	recReads                                  map[string]*metrics.Counter // world-scoped, by source
	lbIntercept, lbSlope, lbResidual, lbObs   *metrics.Gauge
	user                                      map[string]*metrics.Counter // lazily bound user_ counters

	// BindReplication.
	mirrorSends, mirrorBytes, shadowSyncs, dupDrops, failovers *metrics.Counter
}

// NewRecorder returns an untraced Recorder for rank: it records no events
// and only feeds the planes Attach binds. Tracer.Rank hands out the traced
// ones; the cluster chooses between the two.
func NewRecorder(rank int) *Recorder { return &Recorder{rank: rank} }

// Attach binds the metrics registry and the introspection probe (either may
// be nil) to the Recorder. Attaching again keeps the planes already bound.
// Registry series bind per scope, later, as each layer starts on the rank.
func (r *Recorder) Attach(reg *metrics.Registry, probe *introspect.RankProbe) {
	if reg != nil && r.m == nil {
		r.m = &instruments{reg: reg, rank: r.rank}
	}
	if probe != nil {
		r.probe = probe
	}
}

// BindMPI binds the rank's ftmr_mpi_* series (called when the rank is
// launched). No-op without a registry.
func (r *Recorder) BindMPI() {
	if r == nil || r.m == nil {
		return
	}
	m, reg, rank := r.m, r.m.reg, r.rank
	m.sends = reg.Counter("ftmr_mpi_sends", "Point-to-point sends initiated.", rank)
	m.sendBytes = reg.Counter("ftmr_mpi_send_bytes", "Point-to-point payload bytes sent.", rank)
	m.recvs = reg.Counter("ftmr_mpi_recvs", "Point-to-point messages received.", rank)
	m.recvBytes = reg.Counter("ftmr_mpi_recv_bytes", "Point-to-point payload bytes received.", rank)
	m.colls = reg.Counter("ftmr_mpi_collectives", "Collective operations entered.", rank)
	m.revokes = reg.Counter("ftmr_mpi_revokes", "ULFM Revoke calls (including re-initiations).", rank)
	m.shrinks = reg.Counter("ftmr_mpi_shrinks", "ULFM Shrink calls.", rank)
	m.agrees = reg.Counter("ftmr_mpi_agrees", "ULFM Agree calls.", rank)
}

// BindRunner makes t the tally this Recorder's calls update and, with a
// registry attached, binds the job runner's series, t's mirrored ones among
// them (called when a runner starts on the rank, with its fresh tally).
func (r *Recorder) BindRunner(t *Tally) {
	if r == nil {
		return
	}
	r.tally = t
	if r.m == nil {
		return
	}
	m, reg, rank := r.m, r.m.reg, r.rank
	m.mapTask = reg.Histogram("ftmr_map_task_seconds",
		"Virtual-time latency of map task executions (including restores).",
		rank, metrics.TaskSecondsBuckets)
	m.reducePart = reg.Histogram("ftmr_reduce_partition_seconds",
		"Virtual-time latency of reduce partition executions.",
		rank, metrics.TaskSecondsBuckets)
	m.taskCommits = reg.Counter("ftmr_task_commits",
		"Task commit points (map task completions and reduce group commits).", rank)
	m.recoveryAttempts = reg.Counter(metrics.MRecoveryAttempts,
		"Distributed-recovery episodes entered.", rank)
	m.ckptWriteWait = reg.Counter(metrics.MCkptWriteWait,
		"Main-thread seconds stalled writing checkpoint frames.", rank)
	m.ckptDrainWait = reg.Counter(metrics.MCkptDrainWait,
		"Seconds waiting in end-of-phase checkpoint drain barriers.", rank)
	m.quarantines = reg.Counter(metrics.MCkptQuarantines,
		"Checkpoint streams truncated to their longest valid prefix.", rank)
	m.recReads = make(map[string]*metrics.Counter)
	for _, src := range []string{SourceReplicaLocal, SourceReplicaPeer, SourcePFS} {
		m.recReads[src] = reg.CounterL(metrics.MRecoveryReads,
			"Recovery-time checkpoint stream reads by failover-chain source.", "source", src)
	}
	m.lbIntercept = reg.Gauge("ftmr_lb_fit_intercept_seconds",
		"Load-balance model intercept from the latest fit.", rank)
	m.lbSlope = reg.Gauge("ftmr_lb_fit_slope_seconds_per_byte",
		"Load-balance model slope from the latest fit.", rank)
	m.lbResidual = reg.Gauge("ftmr_lb_fit_rms_residual_seconds",
		"RMS residual of the latest load-balance fit over its observations.", rank)
	m.lbObs = reg.Gauge("ftmr_lb_fit_observations",
		"Observation count behind the latest load-balance fit.", rank)
	m.mirrorTally(t)
}

// BindReplication binds the replication execution model's ftmr_ftmodel_*
// series (called only when the model is active, so checkpoint/restart runs
// register none). No-op without a registry.
func (r *Recorder) BindReplication() {
	if r == nil || r.m == nil {
		return
	}
	m, reg, rank := r.m, r.m.reg, r.rank
	m.mirrorSends = reg.Counter("ftmr_ftmodel_mirror_sends",
		"Shadow-mirrored shuffle bundle copies sent.", rank)
	m.mirrorBytes = reg.Counter("ftmr_ftmodel_mirror_bytes",
		"Bytes of shadow-mirrored shuffle bundle copies.", rank)
	m.shadowSyncs = reg.Counter("ftmr_ftmodel_shadow_syncs",
		"Reduce-progress sync records pushed to shadows.", rank)
	m.dupDrops = reg.Counter("ftmr_ftmodel_dup_drops",
		"Duplicate replicate-shuffle deliveries dropped by flow-id dedup.", rank)
	m.failovers = reg.Counter("ftmr_ftmodel_failovers",
		"Shadow promotions to acting primary.", rank)
}

// mets returns the registry plane, or nil when it is off.
func (r *Recorder) mets() *instruments {
	if r == nil {
		return nil
	}
	return r.m
}

// injected counts one injected fault of the given kind on the world-scoped
// ftmr_failures_injected family, binding the series on first use so it only
// appears once a fault of that kind was injected.
func (r *Recorder) injected(kind string) {
	if m := r.mets(); m != nil {
		m.reg.CounterL("ftmr_failures_injected",
			"Process-level faults injected, by kind.", "kind", kind).Inc()
	}
}

// --- facts that reach the registry or the probe but emit no event --------

// InjectOutage counts a whole-tier storage outage window being scheduled.
func (r *Recorder) InjectOutage() { r.injected("outage") }

// TaskSeconds observes one task execution's virtual-time latency: what is
// "map" (a map task, restores included) or "reduce" (a reduce partition).
func (r *Recorder) TaskSeconds(what string, d time.Duration) {
	if m := r.mets(); m != nil {
		if what == "map" {
			m.mapTask.Observe(d.Seconds())
		} else {
			m.reducePart.Observe(d.Seconds())
		}
	}
}

// RecoveryAttempt counts one distributed-recovery episode entered.
func (r *Recorder) RecoveryAttempt() {
	if m := r.mets(); m != nil {
		m.recoveryAttempts.Inc()
	}
}

// AddCounter tallies delta into the user counter name (TaskContext
// .AddCounter) and adds it to the rank's user_<name> series, binding and
// caching the series on first use.
func (r *Recorder) AddCounter(name string, delta int64) {
	if r == nil {
		return
	}
	if t := r.tally; t != nil {
		t.Counters[name] += delta
	}
	m := r.m
	if m == nil {
		return
	}
	ctr, ok := m.user[name]
	if !ok {
		if m.user == nil {
			m.user = make(map[string]*metrics.Counter)
		}
		ctr = m.reg.Counter("user_"+metrics.SanitizeName(name),
			"User-defined counter (TaskContext.AddCounter).", m.rank)
		m.user[name] = ctr
	}
	ctr.Add(float64(delta))
}

// MirrorBundle counts one shadow-mirrored shuffle bundle the replication
// model sent successfully (the shadow.mirror event comes from the MPI send
// itself, on every outcome).
func (r *Recorder) MirrorBundle(bytes int) {
	if m := r.mets(); m != nil {
		m.mirrorSends.Inc()
		m.mirrorBytes.Add(float64(bytes))
	}
}

// DupDrop counts one duplicate replicate-shuffle delivery dropped by
// flow-id dedup.
func (r *Recorder) DupDrop() {
	if m := r.mets(); m != nil {
		m.dupDrops.Inc()
	}
}

// SetTask annotates the task the rank is working on (introspect.NoValue
// when none).
func (r *Recorder) SetTask(id int) {
	if r != nil {
		r.probe.SetTask(id)
	}
}

// EnterDrain annotates entry into a checkpoint drain barrier.
func (r *Recorder) EnterDrain() {
	if r != nil {
		r.probe.SetDrain(true)
	}
}

// ExitDrain annotates leaving the checkpoint drain barrier.
func (r *Recorder) ExitDrain() {
	if r != nil {
		r.probe.SetDrain(false)
	}
}
