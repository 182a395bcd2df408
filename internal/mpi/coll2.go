package mpi

import (
	"encoding/binary"
	"sort"
)

// Additional MPI operations used by applications and the library's
// auxiliary protocols: Reduce, Scatter, Scan, Sendrecv, and Probe.

// ReduceInt64 folds one int64 per rank with op at root. Non-root ranks
// receive 0.
func (c *Comm) ReduceInt64(root int, v int64, op func(a, b int64) int64) (int64, error) {
	seq := c.peekSeq()
	c.r.rec.CollBeginN("reduce", c.st.id, seq)
	defer c.r.rec.CollEndN("reduce", c.st.id, seq)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	all, err := c.Gather(root, buf[:])
	if err != nil {
		return 0, err
	}
	if c.rank != root {
		return 0, nil
	}
	acc := v
	for r, d := range all {
		if r == c.rank || len(d) != 8 {
			continue
		}
		acc = op(acc, int64(binary.BigEndian.Uint64(d)))
	}
	return acc, nil
}

// Scatter distributes data[i] from root to comm rank i and returns the
// caller's piece. Non-root ranks pass nil. It runs over the same binomial
// tree as Bcast, forwarding each subtree's bundle.
func (c *Comm) Scatter(root int, data [][]byte) ([]byte, error) {
	seq := c.nextSeq()
	c.r.rec.CollBeginN("scatter", c.st.id, seq)
	defer c.r.rec.CollEndN("scatter", c.st.id, seq)
	out, err := c.scatterTree(seq, root, data)
	return out, c.raise(err)
}

func (c *Comm) scatterTree(seq, root int, data [][]byte) ([]byte, error) {
	n := c.Size()
	vr := vrank(c.rank, root, n)
	var bundle map[int][]byte
	if vr == 0 {
		if len(data) != n {
			return nil, &ProcFailedError{} // caller error; keep simple
		}
		bundle = make(map[int][]byte, n)
		for r, d := range data {
			bundle[r] = d
		}
	} else {
		m, err := c.recv(prank(treeParent(vr), root, n), internalTag(seq, 4))
		if err != nil {
			return nil, err
		}
		b, err := decodeBundle(m.Data)
		if err != nil {
			return nil, err
		}
		bundle = b
	}
	// Forward each child its subtree's slice of the bundle.
	for _, child := range treeChildren(vr, n) {
		sub := make(map[int][]byte)
		for _, vd := range subtreeRanks(child, n) {
			r := prank(vd, root, n)
			if d, ok := bundle[r]; ok {
				sub[r] = d
			}
		}
		if _, err := c.send(prank(child, root, n), internalTag(seq, 4), encodeBundle(sub)); err != nil {
			return nil, err
		}
	}
	return bundle[c.rank], nil
}

// subtreeRanks returns the virtual ranks in the binomial subtree rooted at
// vr (inclusive).
func subtreeRanks(vr, n int) []int {
	out := []int{vr}
	for _, child := range treeChildren(vr, n) {
		out = append(out, subtreeRanks(child, n)...)
	}
	return out
}

// ScanInt64 computes the inclusive prefix reduction: rank i receives
// op(v₀, …, vᵢ). Implemented as a ring pass.
func (c *Comm) ScanInt64(v int64, op func(a, b int64) int64) (int64, error) {
	seq := c.nextSeq()
	c.r.rec.CollBeginN("scan", c.st.id, seq)
	defer c.r.rec.CollEndN("scan", c.st.id, seq)
	acc := v
	var buf [8]byte
	if c.rank > 0 {
		m, err := c.recv(c.rank-1, internalTag(seq, 5))
		if err != nil {
			return 0, c.raise(err)
		}
		acc = op(int64(binary.BigEndian.Uint64(m.Data)), v)
	}
	if c.rank < c.Size()-1 {
		binary.BigEndian.PutUint64(buf[:], uint64(acc))
		if _, err := c.send(c.rank+1, internalTag(seq, 5), buf[:]); err != nil {
			return 0, c.raise(err)
		}
	}
	return acc, nil
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv): the send is
// initiated first (eager), then the receive blocks.
func (c *Comm) Sendrecv(dest, sendTag int, data []byte, src, recvTag int) (*Message, error) {
	if err := c.Send(dest, sendTag, data); err != nil {
		return nil, err
	}
	return c.Recv(src, recvTag)
}

// Probe blocks until a message matching (src, tag) is available without
// consuming it, returning its source, tag, and size (MPI_Probe). It shares
// Recv's failure semantics.
func (c *Comm) Probe(src, tag int) (msgSrc, msgTag, size int, err error) {
	st := c.st
	if st.revoked {
		return 0, 0, 0, c.raise(ErrRevoked)
	}
	box := st.boxes[c.rank]
	for {
		var found *Message
		box.eachMsg(func(m *Message) bool {
			if (src == AnySource || src == m.Src) && tagMatch(tag, m.Tag) {
				found = m
				return false
			}
			return true
		})
		if found != nil {
			return found.Src, found.Tag, len(found.Data), nil
		}
		if e := c.failedSourceErr(src); e != nil {
			return 0, 0, 0, c.raise(e)
		}
		// Wait for any delivery, then re-scan. A probe waiter matches like
		// a receive but re-buffers the message.
		rw := &recvWait{p: c.r.proc, src: src, tag: tag}
		box.addWaiter(rw)
		for !rw.done {
			c.r.proc.Park()
			if st.w.aborted && !rw.done {
				box.unwait(rw)
				return 0, 0, 0, c.raise(ErrAborted)
			}
		}
		if rw.err != nil {
			return 0, 0, 0, c.raise(rw.err)
		}
		// Put the matched message back for the subsequent Recv.
		box.pushFrontMsg(rw.msg)
	}
}

// Split partitions the communicator by color (MPI_Comm_split): every rank
// passing the same non-negative color lands in a new communicator holding
// exactly those ranks, ordered by (key, rank). A negative color
// (MPI_UNDEFINED) yields a nil communicator. Collective over all live
// ranks.
func (c *Comm) Split(color, key int) (*Comm, error) {
	seq := c.peekSeq()
	c.r.rec.CollBeginN("split", c.st.id, seq)
	defer c.r.rec.CollEndN("split", c.st.id, seq)
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(int64(color)))
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(key)))
	all, err := c.Allgather(buf[:])
	if err != nil {
		return nil, err
	}
	type member struct{ color, key, rank int }
	var mine []member
	for r, d := range all {
		if len(d) != 16 {
			continue
		}
		col := int(int64(binary.BigEndian.Uint64(d[:8])))
		k := int(int64(binary.BigEndian.Uint64(d[8:])))
		if col == color {
			mine = append(mine, member{col, k, r})
		}
	}
	if color < 0 {
		return nil, nil
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	for i, m := range mine {
		group[i] = c.st.group[m.rank]
	}
	// Deterministic registry keyed by (comm, per-rank split epoch, color):
	// every member computes the same key and the first arrival allocates.
	w := c.st.w
	if w.splits == nil {
		w.splits = make(map[splitKey]*commState)
	}
	key2 := splitKey{parent: c.st.id, epoch: c.st.splitEpoch[c.rank], color: color}
	c.st.splitEpoch[c.rank]++
	st, ok := w.splits[key2]
	if !ok {
		st = w.newCommState(group)
		w.splits[key2] = st
	}
	return &Comm{st: st, rank: st.commRankOf(c.r.world), r: c.r}, nil
}

// splitKey identifies one collective Split call for one color.
type splitKey struct{ parent, epoch, color int }
