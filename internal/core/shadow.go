package core

// Replication execution model (-ft-model=replicate|partial): part of the
// world runs as dedicated shadow ranks that mirror a primary's task stream —
// re-executing its map tasks, receiving shadow-mirrored copies of its
// shuffle bundles, converting and reducing the same partitions into a local
// staging buffer — so a primary failure fails over to the live shadow with
// no checkpoint replay and no PFS read (FTHP-MPI / PartRePer-MPI style).
// The phases themselves are runner.go's; this file holds the model's state,
// its shuffle transport, the mirror's reduce sink and the failover. Under
// FTModelCR (the zero value) ftm is nil and everything here is unreached or
// returns at its nil check, so checkpoint-only runs stay byte-identical to
// pre-replication behaviour.

import (
	"encoding/binary"
	"fmt"

	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/sched"
)

// Replication-model message tags, in tag space far above tagStatusBase and
// tagReplicaBase. The sync tag is offset by the job index (stale pushes from
// an earlier job can never match a later one); the shuffle tag is offset by
// the job index and the death count, so bundles from an exchange interrupted
// by a failure can never be matched by the re-exchange after recovery (the
// communicator shrank, so the death count is strictly larger).
const (
	tagShadowSync    = 1 << 21
	tagShadowShuffle = 1 << 22
)

// shadowSyncLen is the wire size of one reduce-progress sync record:
// [part u32][groups u32][outLen u64], little-endian.
const shadowSyncLen = 16

// encodeShadowSync serializes one reduce-progress sync record.
func encodeShadowSync(part, groups uint32, outLen uint64) []byte {
	buf := make([]byte, shadowSyncLen)
	binary.LittleEndian.PutUint32(buf[0:4], part)
	binary.LittleEndian.PutUint32(buf[4:8], groups)
	binary.LittleEndian.PutUint64(buf[8:16], outLen)
	return buf
}

// decodeShadowSync parses one reduce-progress sync record. The format is
// fixed-size; any other length is a framing bug, not a partial read.
func decodeShadowSync(data []byte) (part, groups uint32, outLen uint64, err error) {
	if len(data) != shadowSyncLen {
		return 0, 0, 0, fmt.Errorf("core: shadow sync record: %d bytes, want %d", len(data), shadowSyncLen)
	}
	part = binary.LittleEndian.Uint32(data[0:4])
	groups = binary.LittleEndian.Uint32(data[4:8])
	outLen = binary.LittleEndian.Uint64(data[8:16])
	return part, groups, outLen, nil
}

// ftState is one rank's view of the replication execution model: the static
// pairing, the dynamic acting/shadow assignment (updated identically on
// every survivor during recovery), and — on shadow ranks — the mirror's
// staging state. nil when the model is FTModelCR or inapplicable.
type ftState struct {
	pairing *sched.Pairing
	slot    int  // the slot this rank serves (fixed for the job's lifetime)
	mirror  bool // true while this rank is a mirroring shadow (cleared on promotion)

	acting []int // slot -> world rank currently acting as the slot's primary
	shadow []int // slot -> live mirroring shadow's world rank, or -1

	mirrorSlot map[int]int // world rank -> slot, for live mirroring shadows

	// Shadow-side staging: mirrored task completions, the mirror's reduce
	// progress and serialized output per partition, and the primary's last
	// synced durable commit per partition.
	mirrorDone map[int]bool
	mirrorRed  map[int]uint32
	shadowOut  map[int][]byte
	syncedG    map[int]uint32
	syncedLen  map[int]uint64

	// seenFlows dedupes replicate-shuffle bundles: a primary's direct send
	// and its shadow-mirrored copy carry the same world-unique flow id, and
	// each receiver commits a given flow exactly once.
	seenFlows map[uint64]bool
}

// newFTState builds the replication state for one runner, or returns nil
// when the spec does not replicate (FTModelCR, a non-detect/resume model, or
// a world too small to split). Every rank computes the same pairing locally.
func newFTState(j *jobCtx, c *mpi.Comm, spec Spec) *ftState {
	if !spec.FTModel.Replicating() {
		return nil
	}
	if spec.Model != ModelDetectResumeWC && spec.Model != ModelDetectResumeNWC {
		return nil
	}
	w := c.Size()
	if w < 2 {
		return nil
	}
	clus := j.clus
	pr := sched.PairRanks(w, clus.Cfg.PPN, len(clus.Nodes), spec.ReplicaFraction)
	if pr.P >= pr.W {
		return nil // fraction rounded to zero shadows
	}
	f := &ftState{
		pairing:    pr,
		slot:       pr.SlotOf[c.Rank()],
		mirror:     pr.IsShadow(c.Rank()),
		acting:     make([]int, pr.P),
		shadow:     make([]int, pr.P),
		mirrorSlot: make(map[int]int),
		mirrorDone: make(map[int]bool),
		mirrorRed:  make(map[int]uint32),
		shadowOut:  make(map[int][]byte),
		syncedG:    make(map[int]uint32),
		syncedLen:  make(map[int]uint64),
		seenFlows:  make(map[uint64]bool),
	}
	c.Self().Recorder().BindReplication()
	for slot := 0; slot < pr.P; slot++ {
		f.acting[slot] = c.WorldRank(slot)
		f.shadow[slot] = -1
		if s := pr.Shadow[slot]; s >= 0 {
			sw := c.WorldRank(s)
			f.shadow[slot] = sw
			f.mirrorSlot[sw] = slot
		}
	}
	return f
}

// pairWorld returns the world rank currently acting as this rank's slot
// primary (for a mirroring shadow: the primary it mirrors).
func (f *ftState) pairWorld() int { return f.acting[f.slot] }

// actingSlot returns the slot w is acting primary of, or -1.
func (f *ftState) actingSlot(w int) int {
	for slot, aw := range f.acting {
		if aw == w {
			return slot
		}
	}
	return -1
}

// redirectToActing maps a mirroring shadow to the primary it serves, so lost
// work redistributed by recovery is never parked on a dedicated mirror (the
// mirror re-executes it anyway, by mirroring its pair). Nil-safe: without a
// replication model every rank acts for itself.
func (f *ftState) redirectToActing(w int) int {
	if f == nil {
		return w
	}
	if slot, ok := f.mirrorSlot[w]; ok {
		return f.acting[slot]
	}
	return w
}

// shuffleTag returns the replicate-exchange tag for the current failure
// epoch (see the tag constants for why the death count is folded in).
func (r *runner) shuffleTag() int {
	deaths := len(r.world0) - r.comm.Size()
	return tagShadowShuffle + r.job.jobIdx*4096 + deaths&4095
}

// syncTag returns the reduce-progress sync tag for this job.
func (r *runner) syncTag() int { return tagShadowSync + r.job.jobIdx }

// ---------------------------------------------------------- mirror phases --

// mirrorPending returns the pair's tasks this shadow has not mirrored yet.
func (r *runner) mirrorPending() []int {
	pair := r.ftm.pairWorld()
	var out []int
	for id, o := range r.tt.owner {
		if o == pair && !r.ftm.mirrorDone[id] {
			out = append(out, id)
		}
	}
	return out
}

// exchangeReplicate is the shuffle transport when the replication model is
// active: primaries send each slot's bundle directly to its acting primary
// and shadow-mirror the identical bytes (same flow id) to the slot's live
// shadow; every rank — primary or shadow — then collects one bundle per
// slot, deduplicating on flow id. Shadows end up holding their pair's
// post-shuffle partitions without the primary ever re-sending on failover.
// The bundles are returned in slot order, so every receiver merges them in
// the same deterministic order.
func (r *runner) exchangeReplicate() ([][]byte, error) {
	f := r.ftm
	tag := r.shuffleTag()

	// Slots whose acting primary is alive (a member of the shrunken
	// communicator). Slots that lost both pair members have no acting rank,
	// and recovery reassigned their partitions to live acting primaries, so
	// they neither send nor receive a bundle. Identical on every rank.
	var liveSlots []int
	for slot, aw := range f.acting {
		if r.comm.CommRankOf(aw) >= 0 {
			liveSlots = append(liveSlots, slot)
		}
	}

	if !f.mirror {
		bufs := r.shuffleBundles()
		for _, d := range liveSlots {
			dst := r.comm.CommRankOf(f.acting[d])
			bundle := bufs[dst]
			var flow uint64
			if err := r.net(func() error {
				id, e := r.comm.SendTracked(dst, tag, bundle)
				flow = id
				return e
			}); err != nil {
				return nil, err
			}
			if sw := f.shadow[d]; sw >= 0 {
				if err := r.net(func() error {
					return r.comm.SendMirror(r.comm.CommRankOf(sw), tag, bundle, flow)
				}); err != nil {
					return nil, err
				}
				r.rec.MirrorBundle(len(bundle))
			}
		}
	}

	// Collect one bundle per live source slot. Duplicate deliveries are
	// dropped on flow id; a flow commits exactly once.
	got := make([][]byte, len(f.acting))
	need := len(liveSlots)
	for need > 0 {
		var m *mpi.Message
		if err := r.net(func() error {
			msg, e := r.comm.Recv(mpi.AnySource, tag)
			m = msg
			return e
		}); err != nil {
			return nil, err
		}
		if f.seenFlows[m.ID()] {
			r.rec.DupDrop()
			continue
		}
		f.seenFlows[m.ID()] = true
		srcSlot := f.actingSlot(r.comm.WorldRank(m.Src))
		if srcSlot < 0 || got[srcSlot] != nil {
			r.rec.DupDrop()
			continue
		}
		got[srcSlot] = m.Data
		need--
	}
	out := make([][]byte, len(liveSlots))
	for i, s := range liveSlots {
		out[i] = got[s]
	}
	return out, nil
}

// stageReduce is a mirroring shadow's reduce commit: it stages the output in
// memory (no PFS write, no checkpoint frame) and folds in the primary's
// reduce-progress sync pushes as they arrive, so a failover knows the
// durable high-water mark.
func (r *runner) stageReduce(part int, g uint32, out []byte) error {
	r.ftm.shadowOut[part] = append(r.ftm.shadowOut[part], out...)
	r.ftm.mirrorRed[part] = g
	r.drainShadowSync()
	return nil
}

// pushShadowSync sends this primary's latest durable reduce commit to its
// live shadow (best-effort eager send; a dead shadow surfaces as a process
// failure and enters normal recovery).
func (r *runner) pushShadowSync(part int, g uint32) {
	f := r.ftm
	if f == nil || f.mirror {
		return
	}
	sw := f.shadow[f.slot]
	if sw < 0 {
		return
	}
	cr := r.comm.CommRankOf(sw)
	if cr < 0 {
		return
	}
	msg := encodeShadowSync(uint32(part), g, r.outLen[part])
	_ = r.net(func() error { return r.comm.Send(cr, r.syncTag(), msg) })
	r.rec.ShadowSync("push", part, int(g), uint64(len(msg)))
}

// drainShadowSync folds banked reduce-progress pushes into the shadow's view
// of the primary's durable high-water mark (monotone max per partition).
func (r *runner) drainShadowSync() {
	if r.ftm == nil {
		return
	}
	for {
		m, ok, err := r.comm.TryRecv(mpi.AnySource, r.syncTag())
		if err != nil || !ok {
			return
		}
		part, g, l, err := decodeShadowSync(m.Data)
		if err != nil {
			continue
		}
		if g >= r.ftm.syncedG[int(part)] {
			r.ftm.syncedG[int(part)] = g
			r.ftm.syncedLen[int(part)] = l
		}
		r.rec.ShadowSync("drain", int(part), int(g), uint64(len(m.Data)))
	}
}

// ---------------------------------------------------------------- failover --

// ftPromote applies the replication failover to the pairing state, after the
// communicator shrank and before survivor claims are exchanged. Every
// survivor updates the acting/shadow arrays identically (pure local compute
// over the agreed failed set); the promoted shadow additionally claims its
// pair's tasks and partitions, reconciles its staged output against the
// primary's last durable commit, and becomes a checkpointing primary. The
// claims then flow through the ordinary recovery allgather, so non-promoted
// survivors learn the new ownership exactly as they learn any other claim.
func (r *runner) ftPromote(failed []int) error {
	f := r.ftm
	if f == nil || len(failed) == 0 {
		return nil
	}
	dead := make(map[int]bool, len(failed))
	for _, w := range failed {
		dead[w] = true
	}
	// Dead shadows stop mirroring their slot.
	for slot, sw := range f.shadow {
		if sw >= 0 && dead[sw] {
			f.shadow[slot] = -1
			delete(f.mirrorSlot, sw)
		}
	}
	me := r.myWorld()
	for slot, aw := range f.acting {
		if !dead[aw] {
			continue
		}
		sw := f.shadow[slot]
		if sw < 0 {
			// Unreplicated slot, or both pair members died: the slot's work
			// goes through the ordinary checkpoint-based lost paths.
			continue
		}
		f.acting[slot] = sw
		f.shadow[slot] = -1
		delete(f.mirrorSlot, sw)
		if sw != me {
			continue
		}
		f.mirror = false
		r.rec.Failover(aw, sw)
		if err := r.adoptPromotion(aw); err != nil {
			return err
		}
	}
	return nil
}

// adoptPromotion is the promoted shadow's half of a failover: claim the dead
// pair's tasks and partitions that the mirror can stand behind, reconcile
// reduce output, and re-enable checkpointing. Everything here is local
// compute plus PFS truncate/append on claimed partitions — no checkpoint
// replay, no partition re-read.
func (r *runner) adoptPromotion(deadWorld int) error {
	me := r.myWorld()
	// Fold any banked final sync pushes before judging durable progress.
	r.drainShadowSync()
	for id, o := range r.tt.owner {
		if o != deadWorld {
			continue
		}
		switch {
		case r.ftm.mirrorDone[id]:
			// Fully mirrored: the map output is in this rank's memory.
			r.tt.owner[id] = me
			r.tt.done[id] = true
		case !r.tt.done[id]:
			// Pending: the new primary runs it like any owned task.
			r.tt.owner[id] = me
			r.backlogBytes += float64(r.tt.tasks[id].Chunk.Size)
		}
		// Done-but-unmirrored tasks stay unclaimed: the generic lost-task
		// machinery re-runs or restores them if their output is needed.
	}
	for part, o := range r.partOwner {
		if o != deadWorld {
			continue
		}
		if r.shuffled && r.parts[part] == nil {
			// Post-exchange partition the mirror never received (adopted by
			// the pair after the exchange): leave it to the lost path.
			continue
		}
		r.partOwner[part] = me
		if err := r.reconcileMirrorOutput(part); err != nil {
			return err
		}
	}
	// From here on this rank is an ordinary primary.
	r.ck.enabled = r.spec.Model.Checkpointing()
	return nil
}

// reconcileMirrorOutput aligns a claimed partition's reduce state with the
// primary's last durable commit: when the mirror is at least as far along,
// the file's uncommitted tail is replaced with the mirror's staged suffix
// (byte-identical — both sides reduce the same deterministic groups) and the
// reduce resumes from the mirror's progress; otherwise the committed prefix
// stands and the reduce resumes from it.
func (r *runner) reconcileMirrorOutput(part int) error {
	f := r.ftm
	gy, ly := f.syncedG[part], f.syncedLen[part]
	gs, out := f.mirrorRed[part], f.shadowOut[part]
	r.outLen[part] = ly
	r.truncateOutput(part)
	if gs >= gy && uint64(len(out)) >= ly {
		if suffix := out[ly:]; len(suffix) > 0 {
			if err := r.appendOutput(part, suffix); err != nil {
				return err
			}
			r.outLen[part] = uint64(len(out))
		}
		r.reduceDone[part] = gs
	} else {
		r.reduceDone[part] = gy
	}
	delete(f.shadowOut, part)
	delete(f.mirrorRed, part)
	return nil
}

// pureFailover reports whether recovery can skip the lost-work machinery
// entirely: every dead rank's work was claimed during promotion (or the dead
// ranks were shadows owning nothing), so nothing is lost and no phase rewind
// beyond the survivors' own minimum is needed.
func (r *runner) pureFailover(lost, lostPending, lostDone []int) bool {
	return r.ftm != nil && len(lost) == 0 && len(lostPending) == 0 && len(lostDone) == 0
}
