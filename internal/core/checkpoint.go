package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/vtime"
)

// Checkpoint streams (paper §4.1). Each map task and each reduce partition
// has an append-only stream of frames. Frames are written to the node-local
// disk and drained to the PFS by a background copier thread (§4.1.3), or
// written directly to the PFS (LocDirectPFS). Only bytes that reached the
// PFS before a failure are recoverable — whatever was still local when the
// process died is lost and must be reprocessed.

// Frame kinds.
const (
	frameMapDelta byte = 1 // a=taskID, b=endRecord; payload = KV delta (record granularity)
	frameTaskDone byte = 2 // a=taskID, b=totalRecords; payload = full task KV (chunk granularity) or empty
	frameShuffle  byte = 3 // a=partition; payload = post-shuffle KV for the partition
	frameConvert  byte = 4 // a=partition; payload = encoded KMV
	frameReduce   byte = 5 // a=partition, b=groups committed; payload = 8-byte output length
)

// frame is one decoded checkpoint frame.
type frame struct {
	kind    byte
	a, b    uint32
	payload []byte
}

// frameHdrLen is the fixed wire header size:
// [kind u8][a u32][b u32][len u32][crc u32].
const frameHdrLen = 17

// maxFramePayload bounds a declared payload length. Nothing legitimate comes
// close (the largest frames carry one partition's KV); a length beyond this
// is garbage even if the stream happens to be long enough to satisfy it.
const maxFramePayload = 1 << 30

// encodeFrame appends the frame's wire form to dst:
// [kind u8][a u32][b u32][len u32][crc u32][payload], where crc is CRC-32
// (IEEE) over the first 13 header bytes followed by the payload — so a bit
// flip anywhere in the frame (including the length or the CRC field itself)
// is detectable at read time.
func encodeFrame(dst []byte, kind byte, a, b uint32, payload []byte) []byte {
	var hdr [frameHdrLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], a)
	binary.LittleEndian.PutUint32(hdr[5:9], b)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:13])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// decodeFrames parses a stream and returns its valid frames. The error is
// non-nil when trailing bytes do not form a complete, checksummed frame —
// a torn tail, a corrupted frame, or garbage. WAL semantics: the returned
// frames are always the longest valid prefix, usable even when err != nil.
func decodeFrames(data []byte) ([]frame, error) {
	out, _, err := decodeFramesPrefix(data)
	return out, err
}

// decodeFramesPrefix parses the longest valid frame prefix of data,
// returning the decoded frames, the number of bytes they occupy, and a
// non-nil error describing the first invalid byte range (if any).
func decodeFramesPrefix(data []byte) ([]frame, int, error) {
	var out []frame
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHdrLen {
			return out, off, fmt.Errorf("core: frame %d at offset %d: short header (%d of %d bytes)",
				len(out), off, len(rest), frameHdrLen)
		}
		kind := rest[0]
		if kind < frameMapDelta || kind > frameReduce {
			return out, off, fmt.Errorf("core: frame %d at offset %d: bad kind %d", len(out), off, kind)
		}
		a := binary.LittleEndian.Uint32(rest[1:5])
		b := binary.LittleEndian.Uint32(rest[5:9])
		l := int(binary.LittleEndian.Uint32(rest[9:13]))
		if l > maxFramePayload {
			return out, off, fmt.Errorf("core: frame %d at offset %d: implausible payload length %d",
				len(out), off, l)
		}
		if len(rest) < frameHdrLen+l {
			return out, off, fmt.Errorf("core: frame %d at offset %d: truncated payload (%d of %d bytes)",
				len(out), off, len(rest)-frameHdrLen, l)
		}
		want := binary.LittleEndian.Uint32(rest[13:17])
		crc := crc32.ChecksumIEEE(rest[:13])
		crc = crc32.Update(crc, crc32.IEEETable, rest[frameHdrLen:frameHdrLen+l])
		if crc != want {
			return out, off, fmt.Errorf("core: frame %d at offset %d: CRC mismatch (got %08x, want %08x)",
				len(out), off, crc, want)
		}
		out = append(out, frame{kind: kind, a: a, b: b, payload: rest[frameHdrLen : frameHdrLen+l : frameHdrLen+l]})
		off += frameHdrLen + l
	}
	return out, off, nil
}

// countFrames returns the number of valid frames in a stream.
func countFrames(data []byte) int {
	fs, _ := decodeFrames(data)
	return len(fs)
}

// ckptPath returns the PFS/local-relative path of a stream.
func ckptPath(jobID, stream string) string {
	return fmt.Sprintf("ckpt/%s/%s", jobID, stream)
}

func mapStream(taskID int) string    { return fmt.Sprintf("map/t%06d", taskID) }
func partStream(part int) string     { return fmt.Sprintf("part/p%06d", part) }
func doneMarker(jobID string) string { return fmt.Sprintf("ckpt/%s/DONE", jobID) }

// copierCPUPerByte is the copier thread's CPU cost to move one byte
// (memcpy + syscall overhead), charged against the rank's core so the
// copier genuinely competes with the main thread (Figure 7: ~3% CPU).
const copierCPUPerByte = 1e-8

// copyReq asks the copier to drain a stream up to its current local length.
type copyReq struct {
	stream string
	// drain, when non-nil, is a drain barrier: the copier sets *drainDone
	// and wakes the process once everything enqueued earlier has copied.
	drain     *vtime.Proc
	drainDone *bool
}

// copier is the background agent thread that moves checkpoint data from the
// node-local disk to the persistent PFS (§4.1.3, §5.1). It shares the CPU
// core with the rank's main thread.
type copier struct {
	jobID   string
	q       *vtime.Queue
	proc    *vtime.Proc
	local   *storage.Tier
	pfs     *storage.Tier
	cpu     *vtime.Bandwidth
	metrics *RankMetrics
	rec     *trace.Recorder // owning rank's recorder; events land on its copier track
	copied  map[string]int  // stream -> bytes durable on PFS
	stopped bool
}

func startCopier(sim *vtime.Sim, name string, jobID string, local, pfs *storage.Tier, cpu *vtime.Bandwidth, m *RankMetrics) *copier {
	cp := &copier{
		jobID:   jobID,
		q:       vtime.NewQueue(sim),
		local:   local,
		pfs:     pfs,
		cpu:     cpu,
		metrics: m,
		copied:  make(map[string]int),
	}
	cp.proc = sim.Spawn(name, cp.loop)
	return cp
}

func (cp *copier) loop(p *vtime.Proc) {
	for {
		item, ok := cp.q.Recv(p)
		if !ok {
			return
		}
		// Coalesce the backlog: when the PFS is slow the queue grows, and
		// draining it in one sweep turns many small frames into few large
		// appends — the aggregation §4.1.3 relies on.
		reqs := []copyReq{item.(copyReq)}
		for {
			it, ok := cp.q.TryRecv()
			if !ok {
				break
			}
			reqs = append(reqs, it.(copyReq))
		}
		stop := false
		var streams []string
		seen := make(map[string]bool)
		var drains []copyReq
		for _, req := range reqs {
			switch {
			case req.drain != nil:
				drains = append(drains, req)
			case req.stream == "":
				stop = true
			default:
				if !seen[req.stream] {
					seen[req.stream] = true
					streams = append(streams, req.stream)
				}
			}
		}
		for _, s := range streams {
			cp.copyStream(p, s)
		}
		for _, d := range drains {
			*d.drainDone = true
			p.Sim().Wake(d.drain)
		}
		if stop {
			cp.stopped = true
			return
		}
	}
}

// copyStream drains the not-yet-copied suffix of a stream to the PFS as one
// aggregated write (the whole point of the copier: few large PFS ops
// instead of many small ones).
func (cp *copier) copyStream(p *vtime.Proc, stream string) {
	path := ckptPath(cp.jobID, stream)
	total := cp.local.Size(path)
	have := cp.copied[stream]
	if total <= have {
		return
	}
	data, err := cp.local.Peek(path)
	if err != nil {
		return
	}
	delta := data[have:]
	cp.rec.CopierBegin(stream, len(delta))
	// Read only the new suffix from the local disk.
	cp.metrics.CopierIO += cp.local.Charge(p, 1, len(delta))
	// CPU for the copy path (shared with the main thread on this core).
	cpuSec := float64(len(delta)) * copierCPUPerByte
	t0 := p.Now()
	cp.cpu.Acquire(p, cpuSec)
	cp.metrics.CPUCopier += p.Now() - t0
	// A torn PFS append would leave a partial frame at the durable tail; roll
	// back to the pre-append length and retry so the drained stream never
	// carries a torn frame boundary.
	pre := cp.pfs.Size(path)
	d, err := cp.pfs.AppendFile(p, path, delta, 1)
	cp.metrics.CopierIO += d
	for attempt := 0; err != nil && attempt < 3; attempt++ {
		cp.pfs.Truncate(path, pre)
		d, err = cp.pfs.AppendFile(p, path, delta, 1)
		cp.metrics.CopierIO += d
	}
	if err != nil {
		// Give up on this delta (clean rollback, no durability advance); a
		// later drain of the stream retries the whole suffix.
		cp.pfs.Truncate(path, pre)
		cp.rec.CopierEnd(stream, len(delta))
		return
	}
	cp.copied[stream] = total
	cp.rec.CopierDrain(stream, len(delta))
	cp.rec.CopierEnd(stream, len(delta))
}

// enqueue schedules a stream drain.
func (cp *copier) enqueue(stream string) {
	if !cp.stopped {
		cp.q.Send(copyReq{stream: stream})
	}
}

// drainWait blocks the caller until every previously enqueued copy has
// completed (the phase-end consistency point, §4.1.1).
func (cp *copier) drainWait(p *vtime.Proc) {
	if cp.stopped || cp.proc.Dead() {
		return
	}
	done := false
	cp.q.Send(copyReq{drain: p, drainDone: &done})
	for !done && !cp.proc.Dead() {
		p.Park()
	}
}

// stop terminates the copier after outstanding work.
func (cp *copier) stop() {
	if !cp.stopped {
		cp.q.Send(copyReq{stream: ""})
	}
}

// ckptWriter is the per-rank checkpoint front-end used by the task runner.
type ckptWriter struct {
	enabled bool
	jobID   string
	loc     Location
	local   *storage.Tier // nil when the node has no local disk
	pfs     *storage.Tier
	cp      *copier
	m       *RankMetrics
	rec     *trace.Recorder
	agent   *lbAgent    // fed phase-boundary drain stalls (trace LB model)
	rep     *replicator // nil when the in-memory replica tier is disabled
}

// write appends encoded frame bytes to a stream, charging frames small
// operations at the configured location, and returns the I/O wait incurred
// on the main thread.
func (w *ckptWriter) write(p *vtime.Proc, stream string, data []byte, frames int) {
	if !w.enabled || len(data) == 0 {
		return
	}
	path := ckptPath(w.jobID, stream)
	w.m.CkptFrames += int64(frames)
	w.m.CkptBytes += int64(len(data))
	w.rec.CkptCommit(stream, len(data), frames)
	if w.loc == LocLocalCopier && w.local != nil {
		d := appendRepair(p, w.local, path, data, frames)
		w.m.IOWait += d
		w.rec.CkptStall("write", d)
		w.cp.enqueue(stream)
		w.replicate(stream, data)
		return
	}
	// Direct to PFS: every frame is a distinct small operation against the
	// shared file system (§4.1.3's slow path).
	d := appendRepair(p, w.pfs, path, data, frames)
	w.m.IOWait += d
	w.rec.CkptStall("write", d)
	w.replicate(stream, data)
}

// replicate pushes freshly committed frame bytes into the in-memory replica
// tier (no-op when disabled). The pushed bytes are the pre-injection
// originals — replica copies are clean by construction, which is why the
// read-path failover chain may prefer them over a possibly-corrupt durable
// copy. Pushed even when the durable append was dropped after retries: the
// RAM tier failing independently of the disk tiers is the point.
func (w *ckptWriter) replicate(stream string, data []byte) {
	if w.rep != nil {
		w.rep.push(stream, data)
	}
}

// appendRepair appends data to path on t, rolling back and retrying torn
// appends so a stream never accumulates a torn frame boundary mid-file.
// Silent bit flips are left in place — the frame CRC catches them at read
// time. If the append keeps tearing, the frame is dropped cleanly (reduced
// checkpoint coverage, never a corrupt stream).
func appendRepair(p *vtime.Proc, t *storage.Tier, path string, data []byte, ops int) time.Duration {
	var total time.Duration
	for attempt := 0; attempt < 4; attempt++ {
		pre := t.Size(path)
		d, err := t.AppendFile(p, path, data, ops)
		total += d
		if err == nil {
			return total
		}
		t.Truncate(path, pre)
	}
	return total
}

// phaseSync waits for the copier to drain (checkpoint consistency point at
// the end of each phase, §4.1.1).
func (w *ckptWriter) phaseSync(p *vtime.Proc) {
	if w.enabled && w.loc == LocLocalCopier && w.cp != nil {
		t0 := p.Now()
		w.rec.EnterDrain()
		w.cp.drainWait(p)
		w.rec.ExitDrain()
		d := p.Now() - t0
		w.m.IOWait += d
		w.rec.CkptStall("drain", d)
		if w.agent != nil {
			w.agent.noteStall(d)
		}
	}
}

// ckptReader loads checkpoint streams during recovery.
type ckptReader struct {
	jobID    string
	pfs      *storage.Tier
	local    *storage.Tier // staging target for prefetch
	prefetch bool
	m        *RankMetrics
	rec      *trace.Recorder
	// staged marks streams already prefetched to the local disk.
	staged map[string]bool
	// rs, when non-nil, is the rank's in-memory replica store; load prefers
	// it over the PFS (the failover chain's RAM tiers).
	rs *replicaStore
}

// load returns the decoded frames of a stream, charging recovery I/O. The
// read path is a failover chain: the rank's own in-memory mirror, then
// frames pushed by replica partners — both RAM, no storage charge, clean by
// construction — and only then the PFS. With prefetching (§5.1) the PFS
// stream is first staged to the local disk in one bulk read, then replayed
// from local storage; without it, every frame is a separate small PFS read.
// Transient read faults are retried; a whole-tier outage is waited out
// (only reached when no replica covers the stream); a torn tail or
// corrupted frame is quarantined WAL-style: the master copy is truncated to
// its longest valid prefix (so later readers replay only good frames) and
// the lost tail's work is redone by the caller — unless a replica holds the
// frames, in which case the chain never reaches the damaged copy.
func (r *ckptReader) load(p *vtime.Proc, stream string) []frame {
	// Whatever this call spends — staging reads, retries, per-frame replay
	// charges — is added to the load-checkpoint bucket as one stage.
	var d time.Duration
	defer func() { addRecoveryStage(r.m, r.rec, "load", d) }()
	if frames := r.loadReplica(stream); frames != nil {
		return frames
	}
	path := ckptPath(r.jobID, stream)
	if !r.pfs.Exists(path) {
		return nil
	}
	var raw []byte
	if r.prefetch && r.local != nil {
		if !r.staged[stream] {
			data, err := readRetry(p, r.pfs, path, &d)
			if err != nil {
				return nil
			}
			for attempt := 0; ; attempt++ {
				wd, werr := r.local.WriteFile(p, "stage/"+path, data)
				d += wd
				if werr == nil || attempt >= 2 {
					break
				}
				if errors.Is(werr, storage.ErrTierOutage) {
					// A local-tier outage stalls staging rather than failing
					// it; waiting never consumes the retry budget.
					r.local.AwaitOnline(p)
					attempt--
				}
			}
			r.staged[stream] = true
		}
		data, err := readRetry(p, r.local, "stage/"+path, &d)
		if err != nil {
			return nil
		}
		raw = data
	} else {
		data, err := r.pfs.Peek(path)
		if errors.Is(err, storage.ErrTierOutage) {
			// No replica covered the stream and the PFS is offline: wait the
			// window out. Bounded by the outage schedule, and the only way to
			// preserve the run's output byte-for-byte.
			r.pfs.AwaitOnline(p)
			data, err = r.pfs.Peek(path)
		}
		if err != nil {
			return nil
		}
		raw = data
	}
	frames, consumed, err := decodeFramesPrefix(raw)
	if err != nil {
		// Quarantine everything from the first bad frame on. Replaying a
		// partially-corrupt suffix would inject garbage state; dropping it
		// only costs rework, which the recovery path already handles for
		// streams that never became durable at all.
		r.rec.CkptCorrupt(stream, consumed, len(raw))
		r.m.Counters["ckpt_corrupt"]++
		r.pfs.Truncate(path, consumed)
		if r.local != nil && r.staged[stream] {
			r.local.Truncate("stage/"+path, consumed)
		}
	}
	if !r.prefetch || r.local == nil {
		// Direct PFS replay: charge one operation per frame.
		d += r.pfs.Charge(p, len(frames), consumed)
	}
	r.accountLoad(stream, trace.SourcePFS, raw[:consumed], frames)
	return frames
}

// loadReplica serves a stream from the in-memory replica tier, or nil when
// no replica covers it. Replica bytes carry no storage charge (they are
// already in the reader's RAM; the network cost was paid when they were
// pushed), which is exactly the recovery-time win the abl-restore ablation
// measures.
func (r *ckptReader) loadReplica(stream string) []frame {
	if r.rs == nil {
		return nil
	}
	raw, own := r.rs.lookup(stream)
	if raw == nil {
		return nil
	}
	frames, consumed, derr := decodeFramesPrefix(raw)
	if len(frames) == 0 {
		return nil // defensive: fall through to the durable chain
	}
	if derr != nil {
		// A replica with a broken tail (shouldn't happen — pushes are whole
		// clean frames): keep only the valid prefix so later appends can't
		// land behind garbage.
		r.rs.truncate(stream, consumed)
	}
	source := trace.SourceReplicaPeer
	if own {
		source = trace.SourceReplicaLocal
	}
	r.accountLoad(stream, source, raw[:consumed], frames)
	return frames
}

// accountLoad records one satisfied recovery read: byte/frame counters, the
// ckpt.load event, the recovery.source attribution, and the per-source
// registry counter. It also seeds the reader's replica mirror — the rank
// that replayed a stream owns it from here on.
func (r *ckptReader) accountLoad(stream, source string, valid []byte, frames []frame) {
	r.m.RecoveredBytes += int64(len(valid))
	r.m.RecoveredFrames += int64(len(frames))
	r.rec.CkptLoad(stream, len(valid), len(frames))
	r.rec.RecoverySource(source, len(valid), len(frames))
	if r.rs != nil {
		r.rs.adopt(stream, valid)
	}
}

// readRetry reads path from t, retrying transient read faults a bounded
// number of times and accumulating the I/O wait into acc. A whole-tier
// outage is waited out without consuming the retry budget.
func readRetry(p *vtime.Proc, t *storage.Tier, path string, acc *time.Duration) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		data, d, err := t.ReadFile(p, path)
		*acc += d
		if err == nil {
			return data, nil
		}
		if errors.Is(err, storage.ErrTierOutage) {
			t.AwaitOnline(p)
			attempt--
			continue
		}
		if !errors.Is(err, storage.ErrReadFault) || attempt >= 2 {
			return nil, err
		}
	}
}
