// Package mpi is an in-process, deterministic simulation of the Message
// Passing Interface — the substrate FT-MRMPI is built on.
//
// Ranks are simulated processes (one per cluster core); communicators
// support point-to-point messaging with source/tag matching and wildcards,
// and collectives composed from point-to-point messages, so failure
// behaviour emerges exactly as MPI-3 specifies it: a failure is reflected as
// a *local* error in whichever communication calls touch the failed process,
// other ranks may proceed or block, and there is no global notification —
// the inconsistency FT-MRMPI's checkpoint/restart design exploits via error
// handlers plus Abort (paper §2.2, §2.4, §4.1).
//
// The ULFM extensions (Revoke/Shrink/Agree/FailureAck; ulfm.go) implement
// the user-level failure mitigation proposal the detect/resume model needs
// (paper §4.2).
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/vtime"
)

// Wildcards for Recv. User tags must be non-negative; negative tags are
// reserved for internal collective traffic.
const (
	AnySource = -1
	AnyTag    = -9999
)

// ErrRevoked is returned by operations on a revoked communicator.
var ErrRevoked = errors.New("mpi: communicator revoked")

// ErrAborted is returned when the job was aborted while an operation was in
// flight.
var ErrAborted = errors.New("mpi: job aborted")

// ProcFailedError reports that one or more processes needed by the
// operation have failed.
type ProcFailedError struct {
	// Ranks lists the failed processes as world ranks.
	Ranks []int
}

// Error formats the failure with the world ranks involved.
func (e *ProcFailedError) Error() string {
	return fmt.Sprintf("mpi: process failure involving world ranks %v", e.Ranks)
}

// IsProcFailed reports whether err is (or wraps) a process failure.
func IsProcFailed(err error) bool {
	var pf *ProcFailedError
	return errors.As(err, &pf)
}

// tagMatch reports whether a posted receive tag accepts a message tag.
// AnyTag matches only user (non-negative) tags, never internal collective
// traffic.
func tagMatch(want, got int) bool {
	if want == AnyTag {
		return got >= 0
	}
	return want == got
}

// Message is a received point-to-point message. Src is a communicator rank.
// id is the world-unique message id stamped at the send site; it travels
// with the message so the receiver's recv.end trace event carries the same
// flow id as the sender's send.end (the tracer's send→recv flow arrows).
type Message struct {
	// Src is the sender's rank in the communicator the message was sent on.
	Src int
	// Tag is the message tag (negative tags are internal collective
	// traffic).
	Tag int
	// Data is the payload. Receivers must treat it as read-only: eager
	// sends alias the sender's buffer.
	Data []byte
	id   uint64
	// taken tombstones a consumed message still referenced by mailbox
	// index buckets.
	taken bool
}

// ID returns the world-unique message id (flow id) stamped at the send
// site. Receivers that may see the same logical payload twice — once from
// the original send and once from a shadow-mirrored copy (SendMirror) —
// dedupe on it: two messages with equal IDs carry the same bytes.
func (m *Message) ID() uint64 { return m.id }

// World owns the ranks of one MPI job and their shared failure state.
type World struct {
	// Sim is the simulator the job's ranks run on.
	Sim *vtime.Sim
	// Clus is the cluster providing nodes, links, and storage.
	Clus    *cluster.Cluster
	n       int
	ranks   []*Rank
	comms   []*commState
	aborted bool
	dups    map[dupKey]*commState
	splits  map[splitKey]*commState
	// done counts rank main functions that returned normally.
	done int
	// msgID hands out world-unique message ids (flow ids). Deterministic:
	// the simulator runs one process at a time, so same-seed runs allocate
	// identical ids.
	msgID uint64
}

// Rank is one MPI process.
type Rank struct {
	w     *World
	world int // world rank
	proc  *vtime.Proc
	cpu   *vtime.Bandwidth
	node  *cluster.Node
	alive bool
	// computeScale stretches Compute charges when > 0 (straggler
	// injection); zero means unscaled, keeping the hot path branch-cheap.
	computeScale float64
	// rec is the rank's observation handle (trace, metrics and
	// introspection planes); nil when all are disabled, so every hot-path
	// instrumentation point costs a single nil branch.
	rec *trace.Recorder
}

// Recorder returns the rank's observation handle (nil when the trace,
// metrics and introspection planes are all off).
func (r *Rank) Recorder() *trace.Recorder { return r.rec }

// Proc returns the rank's simulated process.
func (r *Rank) Proc() *vtime.Proc { return r.proc }

// CPU returns the rank's core resource (shared with its agent threads).
func (r *Rank) CPU() *vtime.Bandwidth { return r.cpu }

// Node returns the rank's compute node.
func (r *Rank) Node() *cluster.Node { return r.node }

// WorldRank returns the rank's id in the world communicator.
func (r *Rank) WorldRank() int { return r.world }

// Alive reports whether the rank has not failed.
func (r *Rank) Alive() bool { return r.alive }

// SetComputeScale stretches every subsequent Compute charge by factor
// (straggler injection: the rank stays alive and correct, only slower).
// factor <= 0 or 1 restores normal speed.
func (r *Rank) SetComputeScale(factor float64) {
	if factor == 1 {
		factor = 0
	}
	r.computeScale = factor
}

// Compute charges sec seconds of CPU work against the rank's core
// (processor-shared with any agent threads on the same core).
func (r *Rank) Compute(p *vtime.Proc, sec float64) {
	if r.computeScale > 0 {
		sec *= r.computeScale
	}
	if sec > 0 {
		r.cpu.Acquire(p, sec)
	}
}

// commState is the shared state of a communicator.
type commState struct {
	w       *World
	id      int
	group   []int // world ranks, ascending
	revoked bool
	boxes   []*mailbox // indexed by comm rank
	opSeq   []int      // per comm-rank collective sequence number
	// ULFM state.
	shrink *shrinkOp
	agree  *agreeOp
	acked  []map[int]bool // per comm-rank: acknowledged failed world ranks
	// errHandler per comm-rank (nil = errors-are-fatal: abort).
	handlers []func(*Comm, error)
	// dupEpoch / splitEpoch count Dup/Split calls per comm rank.
	dupEpoch   []int
	splitEpoch []int
	// deadCount is the number of failed ranks in the group. It lets
	// failedSourceErr answer the common all-failures-acknowledged case in
	// O(1) instead of scanning the whole group on every AnySource receive.
	deadCount int
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	st   *commState
	rank int // this rank's position in st.group
	r    *Rank
}

// Launch creates a world of n ranks on clus and spawns one simulated process
// per rank running main. Ranks are placed block-wise: rank r runs on node
// r/ppn, core r%ppn. It returns the World for failure injection and
// inspection; the caller drives clus.Sim.Run().
func Launch(clus *cluster.Cluster, n int, main func(c *Comm)) *World {
	if n <= 0 || n > clus.Slots() {
		panic(fmt.Sprintf("mpi: cannot launch %d ranks on %d slots", n, clus.Slots()))
	}
	w := &World{Sim: clus.Sim, Clus: clus, n: n}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	st := w.newCommState(group)
	for i := 0; i < n; i++ {
		i := i
		r := &Rank{w: w, world: i, cpu: clus.CoreOf(i), node: clus.NodeOf(i), alive: true,
			rec: clus.Recorder(i)}
		r.rec.BindMPI()
		w.ranks = append(w.ranks, r)
		r.proc = clus.Sim.Spawn(fmt.Sprintf("rank%d", i), func(p *vtime.Proc) {
			defer func() { w.done++ }()
			main(&Comm{st: st, rank: i, r: r})
		})
		r.proc.OnKill(func() { w.noteFailure(i) })
	}
	clus.Introspect.AttachWorld(w)
	return w
}

// newCommState registers a fresh communicator over the given world ranks.
func (w *World) newCommState(group []int) *commState {
	st := &commState{w: w, id: len(w.comms), group: append([]int(nil), group...)}
	sort.Ints(st.group)
	st.boxes = make([]*mailbox, len(group))
	st.opSeq = make([]int, len(group))
	st.dupEpoch = make([]int, len(group))
	st.splitEpoch = make([]int, len(group))
	st.acked = make([]map[int]bool, len(group))
	st.handlers = make([]func(*Comm, error), len(group))
	for i := range st.boxes {
		st.boxes[i] = &mailbox{}
		st.acked[i] = make(map[int]bool)
	}
	// Communicators can be created after failures (Dup/Split of a group
	// containing dead ranks): seed the dead count from current world state.
	// During Launch the world communicator is created before the ranks
	// exist; they all start alive, so the bound check is enough.
	for _, wr := range st.group {
		if wr < len(w.ranks) && !w.ranks[wr].alive {
			st.deadCount++
		}
	}
	w.comms = append(w.comms, st)
	return st
}

// Kill injects a failure of the given world rank: its process unwinds and
// every communication operation that involves it observes an error, per
// MPI-3 semantics. Killing a dead rank is a no-op.
func (w *World) Kill(worldRank int) {
	r := w.ranks[worldRank]
	if !r.alive {
		return
	}
	w.Sim.Kill(r.proc) // OnKill hook calls noteFailure
}

// noteFailure marks the rank dead and fails the operations blocked on it.
func (w *World) noteFailure(worldRank int) {
	r := w.ranks[worldRank]
	if !r.alive {
		return
	}
	r.alive = false
	r.rec.FailureKill(worldRank)
	for _, st := range w.comms {
		st.onFailure(worldRank)
	}
}

// Aborted reports whether Abort was called on the world.
func (w *World) Aborted() bool { return w.aborted }

// ResetAbort clears the aborted flag (used when a job is restarted on a
// fresh world; kept for symmetry, a restarted job normally builds a new
// World).
func (w *World) ResetAbort() { w.aborted = false }

// AliveCount returns the number of live ranks.
func (w *World) AliveCount() int {
	n := 0
	for _, r := range w.ranks {
		if r.alive {
			n++
		}
	}
	return n
}

// AliveRanks returns the world ranks still alive, ascending.
func (w *World) AliveRanks() []int {
	var out []int
	for _, r := range w.ranks {
		if r.alive {
			out = append(out, r.world)
		}
	}
	return out
}

// Rank returns the rank object for a world rank.
func (w *World) Rank(worldRank int) *Rank { return w.ranks[worldRank] }

// Size returns the world size.
func (w *World) Size() int { return w.n }

// onFailure wakes every parked operation on this communicator that involves
// the failed world rank.
func (st *commState) onFailure(worldRank int) {
	cr := st.commRankOf(worldRank)
	if cr < 0 {
		return
	}
	st.deadCount++
	for _, box := range st.boxes {
		box.eachWaiter(func(rw *recvWait) bool {
			if rw.src == cr || rw.src == AnySource {
				rw.err = &ProcFailedError{Ranks: []int{worldRank}}
				st.w.Sim.Wake(rw.p)
				return true
			}
			return false
		})
	}
	if st.shrink != nil {
		st.shrink.onFailure(st, worldRank)
	}
	if st.agree != nil {
		st.agree.onFailure(st)
	}
}

// commRankOf maps a world rank to its position in the group, or -1.
func (st *commState) commRankOf(worldRank int) int {
	i := sort.SearchInts(st.group, worldRank)
	if i < len(st.group) && st.group[i] == worldRank {
		return i
	}
	return -1
}

// --- Comm basics ---------------------------------------------------------

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator (including failed
// ones; MPI group membership is immutable).
func (c *Comm) Size() int { return len(c.st.group) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.st.group[commRank] }

// CommRankOf translates a world rank to its rank within this communicator,
// or -1 when the world rank is not in the communicator's group. The inverse
// of WorldRank; callers that compute placement in world-rank space (replica
// partners) use it to address sends on a shrunk communicator.
func (c *Comm) CommRankOf(worldRank int) int { return c.st.commRankOf(worldRank) }

// Self returns the rank object of the caller.
func (c *Comm) Self() *Rank { return c.r }

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.st.w }

// Proc returns the caller's simulated process.
func (c *Comm) Proc() *vtime.Proc { return c.r.proc }

// SetErrHandler installs the caller's error handler (the equivalent of
// MPI_Comm_set_errhandler with a user handler). A nil handler restores the
// default MPI_ERRORS_ARE_FATAL behaviour, which aborts the job.
func (c *Comm) SetErrHandler(fn func(*Comm, error)) { c.st.handlers[c.rank] = fn }

// raise delivers err through the rank's error handler, mimicking MPI error
// raising at a communication call. With no handler installed the default is
// errors-are-fatal: the job aborts. Revocation and abort notifications are
// delivered to handlers too (they are how ULFM interrupts normal flow), and
// the original error is returned to the caller in all cases.
func (c *Comm) raise(err error) error {
	if err == nil {
		return nil
	}
	h := c.st.handlers[c.rank]
	if h == nil {
		if !errors.Is(err, ErrAborted) {
			c.Abort()
		}
		return err
	}
	h(c, err)
	return err
}

// Abort terminates the whole job: the process manager broadcasts the
// termination and kills every surviving process (paper §4.1: "The process
// manager in MPI will broadcast the termination of the process...").
func (c *Comm) Abort() {
	w := c.st.w
	if w.aborted {
		return
	}
	w.aborted = true
	for _, r := range w.ranks {
		if r.alive && r != c.r {
			w.Sim.Kill(r.proc)
		}
	}
	// The aborting rank unwinds itself last.
	if c.r.alive {
		w.Sim.Kill(c.r.proc)
	}
}

// transferCost returns the modeled wire time for a message of n bytes.
func (c *Comm) transferCost(n int) time.Duration {
	return c.st.w.Clus.TransferCost(n)
}

// Send transmits data to dest (a comm rank) with the given tag. The caller
// is busy for the wire time. Sends are eager/buffered: delivery does not
// require a posted receive. Errors are raised through the error handler.
func (c *Comm) Send(dest, tag int, data []byte) error {
	_, err := c.send(dest, tag, data)
	return c.raise(err)
}

// SendTracked is Send, additionally returning the world-unique message id
// (flow id) allocated for the transfer. The replication execution model uses
// it to mirror the same logical message to a shadow rank via SendMirror, so
// both deliveries carry an identical id and the receiver side can dedupe.
// The id is 0 when err is non-nil (a failed send allocates no flow).
func (c *Comm) SendTracked(dest, tag int, data []byte) (uint64, error) {
	id, err := c.send(dest, tag, data)
	return id, c.raise(err)
}

func (c *Comm) send(dest, tag int, data []byte) (uint64, error) {
	st := c.st
	if st.revoked {
		return 0, ErrRevoked
	}
	dworld := st.group[dest]
	if !st.w.ranks[dworld].alive {
		return 0, &ProcFailedError{Ranks: []int{dworld}}
	}
	st.w.msgID++
	id := st.w.msgID
	if rec := c.r.rec; rec != nil {
		rec.SendBegin(dworld, tag, len(data))
		defer rec.SendEnd(dworld, tag, len(data), id)
	}
	c.r.proc.Sleep(c.transferCost(len(data)))
	if st.w.aborted {
		return 0, ErrAborted
	}
	if st.revoked {
		return 0, ErrRevoked
	}
	// Deliver (drop silently if the receiver died during the transfer —
	// eager sends complete locally).
	if st.w.ranks[dworld].alive {
		st.deliver(dest, &Message{Src: c.rank, Tag: tag, Data: data, id: id})
	}
	return id, nil
}

// SendMirror transmits a byte-identical copy of an already-sent message to
// dest (a comm rank), reusing the original send's flow id instead of
// allocating a fresh one. This is the replication execution model's shadow
// feed: the sender pays the wire time twice (once per member of the pair),
// but the two deliveries are the *same logical message*, so the receiver
// side can commit the payload exactly once by deduplicating on Message.ID.
// The tracer records the copy as a shadow.mirror event (not a second
// send.end) so flow validation knows the duplicate recv is expected.
// Errors are raised through the error handler exactly like Send.
func (c *Comm) SendMirror(dest, tag int, data []byte, flow uint64) error {
	return c.raise(c.sendMirror(dest, tag, data, flow))
}

func (c *Comm) sendMirror(dest, tag int, data []byte, flow uint64) error {
	st := c.st
	if st.revoked {
		return ErrRevoked
	}
	dworld := st.group[dest]
	if !st.w.ranks[dworld].alive {
		return &ProcFailedError{Ranks: []int{dworld}}
	}
	if rec := c.r.rec; rec != nil {
		defer rec.ShadowMirror(dworld, tag, len(data), flow)
	}
	c.r.proc.Sleep(c.transferCost(len(data)))
	if st.w.aborted {
		return ErrAborted
	}
	if st.revoked {
		return ErrRevoked
	}
	if st.w.ranks[dworld].alive {
		st.deliver(dest, &Message{Src: c.rank, Tag: tag, Data: data, id: flow})
	}
	return nil
}

// deliver places msg in dest's mailbox, handing it to the earliest-posted
// matching waiter if one is parked.
func (st *commState) deliver(dest int, msg *Message) {
	box := st.boxes[dest]
	if rw := box.takeWaiter(msg); rw != nil {
		rw.msg = msg
		st.w.Sim.Wake(rw.p)
		return
	}
	box.pushMsg(msg)
}

// Recv blocks until a message matching (src, tag) arrives. src may be
// AnySource and tag may be AnyTag. Per MPI-3 + ULFM semantics, a receive
// from a specific failed source errors immediately unless a matching
// message was already buffered, and an AnySource receive errors while there
// are unacknowledged failures in the communicator (see FailureAck).
func (c *Comm) Recv(src, tag int) (*Message, error) {
	m, err := c.recv(src, tag)
	return m, c.raise(err)
}

func (c *Comm) recv(src, tag int) (*Message, error) {
	st := c.st
	if st.revoked {
		return nil, ErrRevoked
	}
	rec := c.r.rec
	srcWorld := AnySource
	if rec != nil && src != AnySource {
		srcWorld = st.group[src]
	}
	box := st.boxes[c.rank]
	if m := box.matchBuffered(src, tag); m != nil {
		if rec != nil {
			rec.RecvBegin(srcWorld, tag)
			rec.RecvEnd(srcWorld, tag, len(m.Data), m.id)
		}
		return m, nil
	}
	if err := c.failedSourceErr(src); err != nil {
		return nil, err
	}
	rec.RecvBegin(srcWorld, tag)
	rw := &recvWait{p: c.r.proc, src: src, tag: tag}
	box.addWaiter(rw)
	for !rw.done {
		c.r.proc.Park()
		if st.w.aborted && !rw.done {
			box.unwait(rw)
			rw.err = ErrAborted
			break
		}
	}
	if rw.err != nil {
		rec.RecvEnd(srcWorld, tag, 0, 0)
		return nil, rw.err
	}
	rec.RecvEnd(srcWorld, tag, len(rw.msg.Data), rw.msg.id)
	return rw.msg, nil
}

// TryRecv is a non-blocking receive (MPI_Iprobe + MPI_Recv). ok=false when
// no matching message is buffered.
func (c *Comm) TryRecv(src, tag int) (*Message, bool, error) {
	st := c.st
	if st.revoked {
		return nil, false, c.raise(ErrRevoked)
	}
	if m := st.boxes[c.rank].matchBuffered(src, tag); m != nil {
		if rec := c.r.rec; rec != nil {
			srcWorld := AnySource
			if src != AnySource {
				srcWorld = st.group[src]
			}
			rec.RecvBegin(srcWorld, tag)
			rec.RecvEnd(srcWorld, tag, len(m.Data), m.id)
		}
		return m, true, nil
	}
	return nil, false, nil
}

// failedSourceErr returns the error a receive posted now must raise, if any.
func (c *Comm) failedSourceErr(src int) error {
	st := c.st
	if src == AnySource {
		// Fast path: every failed group member has been acknowledged (or
		// none have failed). acked only ever holds failed ranks and ranks
		// never revive, so equal cardinality means equal sets — O(1) per
		// AnySource receive instead of an O(group) scan.
		if st.deadCount == len(st.acked[c.rank]) {
			return nil
		}
		var dead []int
		for _, wr := range st.group {
			if !st.w.ranks[wr].alive && !st.acked[c.rank][wr] {
				dead = append(dead, wr)
			}
		}
		if len(dead) > 0 {
			return &ProcFailedError{Ranks: dead}
		}
		return nil
	}
	wr := st.group[src]
	if !st.w.ranks[wr].alive {
		return &ProcFailedError{Ranks: []int{wr}}
	}
	return nil
}

// Dup creates a duplicate communicator with the same group. Collective: all
// live ranks must call it. The duplicate shares no message state, so library
// traffic (e.g. the distributed masters' status exchange) cannot interfere
// with application traffic.
func (c *Comm) Dup() (*Comm, error) {
	// Implemented as: the first arriving rank allocates the state, later
	// ranks find it by (parent communicator, per-rank duplication epoch) —
	// every rank performs the same sequence of Dup calls on a communicator,
	// so the epochs agree. A barrier provides the synchronization point.
	seq := c.peekSeq()
	c.r.rec.CollBeginN("dup", c.st.id, seq)
	defer c.r.rec.CollEndN("dup", c.st.id, seq)
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	st := c.st
	key := dupKey{parent: st.id, epoch: st.dupEpoch[c.rank]}
	st.dupEpoch[c.rank]++
	w := st.w
	if w.dups == nil {
		w.dups = make(map[dupKey]*commState)
	}
	dup, ok := w.dups[key]
	if !ok {
		dup = w.newCommState(st.group)
		w.dups[key] = dup
	}
	return &Comm{st: dup, rank: c.rank, r: c.r}, nil
}

// dupKey identifies one collective Dup call on a parent communicator.
type dupKey struct{ parent, epoch int }
