// Package introspect is the live introspection plane: deterministic,
// virtual-time-cadenced snapshots of per-rank wait state, a wait-for graph
// with cycle detection over them, and a wall-clock stall watchdog.
//
// Every other observability surface in this repository (trace JSONL, metrics
// snapshots, critical-path attribution) is post-mortem; this package works
// while the run is alive. It exploits two properties of the simulator: the
// scheduler's fn-callbacks are a natural serialization point (exactly zero
// simulated processes run while one executes — the safe-point guarantee
// DESIGN.md §"Introspection plane" documents), and the mailbox keeps an
// exact posting-order inventory of who is blocked on what. The plane
// therefore never samples racy intermediate state: a capture sees every rank
// either parked or runnable-at-now, with its blocked-receive, collective,
// phase, and drain annotations consistent.
//
// The package deliberately imports only internal/vtime and the standard
// library so that internal/mpi, internal/cluster, and internal/core can all
// depend on it without cycles; the MPI layer plugs in through the narrow
// WorldView interface.
package introspect

import (
	"sort"
	"sync"
	"time"

	"ftmrmpi/internal/vtime"
)

// Rank states reported in snapshots. Precedence when several apply (a
// collective participant is usually also blocked in an internal-tag
// receive): dead, then collective, then recv, then drain, then timer /
// runnable, then parked.
const (
	// StateRunning marks a rank that is runnable at the capture instant
	// (it has a pending wake at the current virtual time).
	StateRunning = "running"
	// StateRecv marks a rank blocked in a posted receive or probe.
	StateRecv = "recv"
	// StateTimer marks a rank sleeping on a scheduler timer (compute,
	// wire-time, or an explicit sleep).
	StateTimer = "timer"
	// StateColl marks a rank inside a collective operation.
	StateColl = "collective"
	// StateDrain marks a rank parked in a checkpoint drain barrier waiting
	// for its copier.
	StateDrain = "ckpt-drain"
	// StateParked marks a rank parked awaiting an explicit wake that the
	// plane cannot attribute further (resource queues, outage windows — see
	// Snapshot.Outages for the latter).
	StateParked = "parked"
	// StateDead marks a failed or exited rank.
	StateDead = "dead"
)

// AllStates lists every rank state in reporting order. Metrics mirrors
// iterate it so gauges for states with zero ranks are written as zero rather
// than left stale.
var AllStates = []string{StateRunning, StateRecv, StateTimer, StateColl,
	StateDrain, StateParked, StateDead}

// AnySource mirrors mpi.AnySource in RankState.Src (the package cannot
// import internal/mpi).
const AnySource = -1

// NoValue is the sentinel RankState uses for integer fields that do not
// apply to the rank's current state (Src, Tag, Comm, Seq, Task).
const NoValue = -2

// RecvWaiter is one parked receive or probe as reported by the MPI layer's
// read-only waiter walk. All ranks are world ranks; Src may be AnySource.
type RecvWaiter struct {
	// Rank is the waiting world rank.
	Rank int
	// Src is the posted source as a world rank, or AnySource.
	Src int
	// Tag is the posted tag (negative tags are internal collective traffic).
	Tag int
	// Comm is the communicator id the receive was posted on.
	Comm int
	// PostedVT is the virtual time the wait was posted.
	PostedVT time.Duration
}

// CommView is the read-only communicator state the straggler analysis
// needs: the group membership and each member's collective progress.
type CommView struct {
	// ID is the communicator id.
	ID int
	// Group lists the member world ranks, ascending.
	Group []int
	// OpSeq is, per Group index, the next collective sequence number that
	// member will consume. A member whose OpSeq is still <= a running
	// collective's seq has provably not entered it yet.
	OpSeq []int
}

// WorldView is the narrow read-only surface the plane reads from the MPI
// layer at each capture. *mpi.World implements it.
type WorldView interface {
	// Size returns the world size.
	Size() int
	// RankAlive reports whether the world rank has not failed.
	RankAlive(worldRank int) bool
	// RankProc returns the world rank's simulated process (nil before
	// launch).
	RankProc(worldRank int) *vtime.Proc
	// EachRecvWaiter calls fn for every live parked receive/probe across
	// every communicator, in deterministic order.
	EachRecvWaiter(fn func(RecvWaiter))
	// EachComm calls fn for every communicator, ascending by id.
	EachComm(fn func(CommView))
}

// Outage describes one storage tier that is inside a fault-injected outage
// window at capture time. Ranks parked against the tier surface as
// StateParked; the snapshot-level outage list supplies the why.
type Outage struct {
	// Tier is the tier name ("pfs", "local-n3", ...).
	Tier string `json:"tier"`
	// UntilUS is the virtual time the window ends, in microseconds.
	UntilUS float64 `json:"until_us"`
}

// RankProbe is one rank's annotation cell: the layers above the simulator
// (MPI collectives, the task runner) record what the rank is doing so
// captures can label wait states. A nil probe is the disabled plane; every
// method is a nil-receiver no-op, holding the disabled path to one branch
// per instrumentation point (the same discipline as the trace recorder and
// metrics instruments, enforced by the overhead gates).
//
// Probes are only mutated and read from simulated-process or scheduler
// context, which the simulator serializes; they need no locks.
type RankProbe struct {
	phase string
	task  int
	// Collective annotation. depth handles wrapper collectives (Allreduce,
	// Dup, Split) that re-enter with the same (comm, seq): the outermost
	// frame's labels win, and the cell clears only when depth returns to 0.
	depth    int
	collOp   string
	collComm int
	collSeq  int
	drain    bool
}

// SetPhase records the runner phase the rank is executing ("" between jobs).
func (rp *RankProbe) SetPhase(phase string) {
	if rp == nil {
		return
	}
	rp.phase = phase
}

// SetTask records the task id the rank is working on (NoValue when none).
func (rp *RankProbe) SetTask(id int) {
	if rp == nil {
		return
	}
	rp.task = id
}

// EnterColl records entry into a collective (op, comm, seq). Nested entries
// from wrapper collectives keep the outermost labels.
func (rp *RankProbe) EnterColl(op string, comm, seq int) {
	if rp == nil {
		return
	}
	if rp.depth == 0 {
		rp.collOp, rp.collComm, rp.collSeq = op, comm, seq
	}
	rp.depth++
}

// ExitColl records leaving a collective entered with EnterColl.
func (rp *RankProbe) ExitColl() {
	if rp == nil {
		return
	}
	if rp.depth > 0 {
		rp.depth--
	}
	if rp.depth == 0 {
		rp.collOp = ""
	}
}

// SetDrain records entry into (true) or exit from (false) a checkpoint
// drain barrier.
func (rp *RankProbe) SetDrain(in bool) {
	if rp == nil {
		return
	}
	rp.drain = in
}

// inColl reports the current collective annotation, if any.
func (rp *RankProbe) inColl() (op string, comm, seq int, ok bool) {
	if rp == nil || rp.depth == 0 {
		return "", 0, 0, false
	}
	return rp.collOp, rp.collComm, rp.collSeq, true
}

// Plane is the introspection plane for one simulation. Create it with New
// before ranks are launched (probes bind at spawn time, like the metrics
// instruments), then Start arms the capture cadence. A nil *Plane disables
// everything at one-branch cost.
type Plane struct {
	sim      *vtime.Sim
	interval time.Duration

	probes []*RankProbe
	worlds []WorldView
	// Outages, when set, reports the storage tiers inside an outage window
	// at the given virtual time (wired by the cluster owner; the plane
	// cannot import internal/storage).
	Outages func(now time.Duration) []Outage

	// OnRankStates, when set, is called with every capture's rank-state
	// counts (state name -> rank count). The caller mirrors them into the
	// ftmr_rank_state metrics gauges; the plane cannot import
	// internal/metrics.
	OnRankStates func(counts map[string]int)

	snaps  []Snapshot
	stalls []StallReport
	// journal is every record in capture order (each stall immediately
	// after the snapshot that raised it); WriteJSONL replays it.
	journal []Line
	// prevCycle remembers the previous capture's cycle membership; a live
	// capture reports a deadlock only when the same cycle persists across
	// two consecutive snapshots (in-flight messages can fabricate one-shot
	// cycles), while the post-run Final capture reports immediately — with
	// the event heap drained nothing is in flight, so every edge is a true
	// completion wait.
	prevCycle []int

	// mu guards the fields the wall-clock watchdog goroutine reads: the
	// last snapshot, the stall list, and the stream sink. Everything else
	// is simulator-serialized.
	mu       sync.Mutex
	lastSnap *Snapshot
	stream   *streamSink
	// beacon counts captures plus processed events, published at safe
	// points only; the watchdog compares successive reads to detect zero
	// virtual-time progress without ever touching simulator state.
	beacon   uint64
	watchdog *Watchdog
}

// New creates a plane on sim capturing every interval of virtual time.
// interval <= 0 selects the default 100ms cadence.
func New(sim *vtime.Sim, interval time.Duration) *Plane {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Plane{sim: sim, interval: interval}
}

// RankProbe returns (allocating on first use) the annotation cell for a
// world rank. On a nil plane, or for a negative rank (the trace's world
// track), it returns nil, which every probe method and binding site accepts.
func (pl *Plane) RankProbe(worldRank int) *RankProbe {
	if pl == nil || worldRank < 0 {
		return nil
	}
	for len(pl.probes) <= worldRank {
		pl.probes = append(pl.probes, nil)
	}
	if pl.probes[worldRank] == nil {
		pl.probes[worldRank] = &RankProbe{task: NoValue, collSeq: NoValue}
	}
	return pl.probes[worldRank]
}

// AttachWorld registers a world for capture. Launch calls it; the most
// recently attached world is the one captured (restarted jobs attach their
// fresh world). No-op on a nil plane.
func (pl *Plane) AttachWorld(v WorldView) {
	if pl == nil {
		return
	}
	pl.worlds = append(pl.worlds, v)
}

// Start arms the capture cadence: a snapshot every interval of virtual time
// while other work remains (vtime.Sim.Every: the cadence never keeps the
// simulation alive). No-op on a nil plane.
func (pl *Plane) Start() {
	if pl == nil {
		return
	}
	pl.sim.Every(pl.interval, func() { pl.capture(false) })
}

// Final captures one post-run snapshot. Call it after Sim.Run returns: if
// ranks deadlocked, the event heap drained with them still parked, and this
// capture detects the cycle immediately (nothing can be in flight). No-op on
// a nil plane.
func (pl *Plane) Final() {
	if pl == nil {
		return
	}
	pl.capture(true)
}

// Snapshots returns every captured snapshot in capture order.
func (pl *Plane) Snapshots() []Snapshot {
	if pl == nil {
		return nil
	}
	return pl.snaps
}

// Stalls returns every stall report raised so far (deadlock cycles and
// watchdog no-progress reports).
func (pl *Plane) Stalls() []StallReport {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]StallReport(nil), pl.stalls...)
}

// world returns the world to capture (the most recently attached), or nil.
func (pl *Plane) world() WorldView {
	if len(pl.worlds) == 0 {
		return nil
	}
	return pl.worlds[len(pl.worlds)-1]
}

// capture runs at a safe point: it derives every rank's state, the wait-for
// graph, and any stall report, then publishes the snapshot to the retained
// list, the stream sink, the metrics mirror, and the watchdog beacon.
func (pl *Plane) capture(final bool) {
	v := pl.world()
	if v == nil {
		return
	}
	now := pl.sim.Now()
	snap := Snapshot{
		Kind: lineSnapshot,
		VTus: vtUS(now),
		Seq:  len(pl.snaps),
	}

	// Index the waiter inventory by waiting rank (first-posted wins: that is
	// the receive the rank is actually parked in; helper probes post later).
	byRank := make(map[int]RecvWaiter)
	v.EachRecvWaiter(func(rw RecvWaiter) {
		if _, ok := byRank[rw.Rank]; !ok {
			byRank[rw.Rank] = rw
		}
	})

	timers := pl.sim.TimerInventory()

	n := v.Size()
	snap.Ranks = make([]RankState, 0, n)
	for w := 0; w < n; w++ {
		rs := RankState{Rank: w, Src: NoValue, Tag: NoValue, Comm: NoValue,
			Seq: NoValue, Task: NoValue, PostedUS: -1}
		proc := v.RankProc(w)
		var probe *RankProbe
		if w < len(pl.probes) {
			probe = pl.probes[w]
		}
		if probe != nil {
			rs.Phase = probe.phase
			if probe.task != NoValue {
				rs.Task = probe.task
			}
		}
		rw, blocked := byRank[w]
		if blocked {
			rs.Src, rs.Tag, rs.Comm = rw.Src, rw.Tag, rw.Comm
			rs.PostedUS = vtUS(rw.PostedVT)
		}
		op, collComm, seq, inColl := probe.inColl()
		fireAt, hasTimer := 0*time.Second, false
		if proc != nil {
			fireAt, hasTimer = timers[proc.ID()]
		}
		switch {
		case !v.RankAlive(w) || proc == nil || proc.Dead():
			rs.State = StateDead
		case inColl:
			rs.State = StateColl
			rs.Op, rs.Seq = op, seq
			if !blocked {
				rs.Comm = collComm
			}
		case blocked:
			rs.State = StateRecv
		case probe != nil && probe.drain:
			rs.State = StateDrain
		case hasTimer && fireAt > now:
			rs.State = StateTimer
			rs.PostedUS = vtUS(fireAt)
		case hasTimer:
			rs.State = StateRunning // wake already pending at now
		case proc.Parked():
			rs.State = StateParked
		default:
			rs.State = StateRunning
		}
		snap.Ranks = append(snap.Ranks, rs)
	}

	if pl.Outages != nil {
		snap.Outages = pl.Outages(now)
	}
	snap.Edges = deriveEdges(snap.Ranks, v)

	var report *StallReport
	if cycle := findCycle(snap.Ranks, snap.Edges); cycle != nil {
		if final || sameCycle(cycle, pl.prevCycle) {
			r := cycleReport(&snap, cycle)
			report = &r
		}
		pl.prevCycle = cycle
	} else {
		pl.prevCycle = nil
	}

	pl.snaps = append(pl.snaps, snap)
	if pl.OnRankStates != nil {
		counts := make(map[string]int)
		for i := range snap.Ranks {
			counts[snap.Ranks[i].State]++
		}
		pl.OnRankStates(counts)
	}

	pl.mu.Lock()
	pl.lastSnap = &pl.snaps[len(pl.snaps)-1]
	pl.journal = append(pl.journal, Line{Snapshot: pl.lastSnap})
	pl.beacon += 1 + pl.sim.EventsProcessed()
	if pl.stream != nil {
		pl.stream.writeSnapshot(snap)
	}
	if report != nil {
		pl.stalls = append(pl.stalls, *report)
		pl.journal = append(pl.journal, Line{Stall: &pl.stalls[len(pl.stalls)-1]})
		if pl.stream != nil {
			pl.stream.writeStall(*report)
		}
	}
	pl.mu.Unlock()
}

// cycleReport builds the structured stall report for a detected cycle:
// members in cycle order, each with its wait reason, plus the oldest
// blocked-since virtual time among them.
func cycleReport(snap *Snapshot, cycle []int) StallReport {
	byRank := make(map[int]*RankState, len(snap.Ranks))
	for i := range snap.Ranks {
		byRank[snap.Ranks[i].Rank] = &snap.Ranks[i]
	}
	rep := StallReport{
		Kind:     lineStall,
		VTus:     snap.VTus,
		Reason:   ReasonDeadlock,
		Cycle:    cycle,
		OldestUS: -1,
	}
	for _, w := range cycle {
		rs := byRank[w]
		if rs == nil {
			continue
		}
		rep.Members = append(rep.Members, StallMember{Rank: w, Reason: waitReason(rs)})
		if rs.PostedUS >= 0 && (rep.OldestUS < 0 || rs.PostedUS < rep.OldestUS) {
			rep.OldestUS = rs.PostedUS
		}
	}
	return rep
}

// sameCycle reports whether two cycles have identical membership
// (order-insensitive).
func sameCycle(a, b []int) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// vtUS converts a virtual time to microseconds (the trace wire format's
// unit).
func vtUS(d time.Duration) float64 { return float64(d) / 1e3 }
