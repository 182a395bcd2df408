package mpi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Collectives are composed from point-to-point messages over binomial trees
// (and a ring for Alltoallv), which is what gives the simulation MPI-3's
// failure behaviour for free: a failure surfaces as a local error only on
// the ranks whose tree/ring edges touch the dead process, while others
// proceed or block — the inconsistent global state described in paper §2.2.
//
// Every collective call consumes one per-rank operation sequence number; the
// sequence is embedded in the (negative, internal) message tags so traffic
// from an interrupted collective can never be matched by a later one.

// internalTag builds the reserved tag for collective op seq and substep.
func internalTag(seq, sub int) int { return -(seq*16 + sub + 1000) }

// nextSeq consumes the caller's collective sequence number.
func (c *Comm) nextSeq() int {
	s := c.st.opSeq[c.rank]
	c.st.opSeq[c.rank]++
	return s
}

// peekSeq returns the sequence number the next collective on this
// communicator will consume, without consuming it. Trace spans are stamped
// with (communicator id, seq): every participant of one collective instance
// consumes the same seq — the tag scheme depends on it — so the pair
// identifies the instance exactly. Wrapper collectives (Allreduce)
// synchronize in an inner call, so they stamp the peeked seq.
func (c *Comm) peekSeq() int { return c.st.opSeq[c.rank] }

// treeParent returns the parent of rank vr (root-relative virtual rank) in a
// binomial tree, or -1 for the root.
func treeParent(vr int) int {
	if vr == 0 {
		return -1
	}
	// Clear the lowest set bit.
	return vr &^ (1 << uint(bits.TrailingZeros(uint(vr))))
}

// treeChildren appends the children of virtual rank vr in a binomial tree
// over n ranks.
func treeChildren(vr, n int) []int {
	var kids []int
	lsb := bits.TrailingZeros(uint(vr))
	if vr == 0 {
		lsb = bits.Len(uint(n)) // root may own all bits
	}
	for b := 0; b < lsb; b++ {
		child := vr | 1<<uint(b)
		if child < n && child != vr {
			kids = append(kids, child)
		}
	}
	return kids
}

// vrank maps a communicator rank to its root-relative virtual rank.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

// prank maps a virtual rank back to a communicator rank.
func prank(vr, root, n int) int { return (vr + root) % n }

// Barrier blocks until every rank in the communicator has entered it. On
// failure it raises an error through the error handler.
func (c *Comm) Barrier() error {
	seq := c.nextSeq()
	c.r.rec.CollBeginN("barrier", c.st.id, seq)
	defer c.r.rec.CollEndN("barrier", c.st.id, seq)
	if err := c.gatherTree(seq, 0, nil, nil); err != nil {
		return c.raise(err)
	}
	if _, err := c.bcastTree(seq, 0, nil); err != nil {
		return c.raise(err)
	}
	return nil
}

// bcastTree runs a binomial-tree broadcast.
func (c *Comm) bcastTree(seq, root int, data []byte) ([]byte, error) {
	n := c.Size()
	vr := vrank(c.rank, root, n)
	if parent := treeParent(vr); parent >= 0 {
		m, err := c.recv(prank(parent, root, n), internalTag(seq, 1))
		if err != nil {
			return nil, err
		}
		data = m.Data
	}
	for _, child := range treeChildren(vr, n) {
		if _, err := c.send(prank(child, root, n), internalTag(seq, 1), data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// gatherTree runs a binomial-tree gather: each rank bundles its own payload
// with its subtree's and forwards to its parent. out (root only) receives
// the per-rank payloads.
func (c *Comm) gatherTree(seq, root int, data []byte, out [][]byte) error {
	n := c.Size()
	vr := vrank(c.rank, root, n)
	bundle := map[int][]byte{c.rank: data}
	// Children with larger low bits arrive later; receive them all.
	for _, child := range treeChildren(vr, n) {
		m, err := c.recv(prank(child, root, n), internalTag(seq, 2))
		if err != nil {
			return err
		}
		sub, err := decodeBundle(m.Data)
		if err != nil {
			return err
		}
		for r, d := range sub {
			bundle[r] = d
		}
	}
	if parent := treeParent(vr); parent >= 0 {
		_, err := c.send(prank(parent, root, n), internalTag(seq, 2), encodeBundle(bundle))
		return err
	}
	if out != nil {
		for r, d := range bundle {
			out[r] = d
		}
	}
	return nil
}

// Allgather collects every rank's data on every rank, indexed by
// communicator rank.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	seq := c.nextSeq()
	c.r.rec.CollBeginN("allgather", c.st.id, seq)
	defer c.r.rec.CollEndN("allgather", c.st.id, seq)
	n := c.Size()
	var gathered [][]byte
	if c.rank == 0 {
		gathered = make([][]byte, n)
	}
	if err := c.gatherTree(seq, 0, data, gathered); err != nil {
		return nil, c.raise(err)
	}
	var enc []byte
	if c.rank == 0 {
		bundle := make(map[int][]byte, n)
		for r, d := range gathered {
			bundle[r] = d
		}
		enc = encodeBundle(bundle)
	}
	enc, err := c.bcastTree(seq, 0, enc)
	if err != nil {
		return nil, c.raise(err)
	}
	bundle, err := decodeBundle(enc)
	if err != nil {
		return nil, c.raise(err)
	}
	out := make([][]byte, n)
	for r, d := range bundle {
		out[r] = d
	}
	if len(bundle) != n {
		alive := make([]bool, n)
		for i, wr := range c.st.group {
			alive[i] = c.st.w.ranks[wr].alive
		}
		panic(fmt.Sprintf("mpi: allgather incomplete: comm=%d rank=%d seq=%d revoked=%v group=%v alive=%v bundleKeys=%d",
			c.st.id, c.rank, seq, c.st.revoked, c.st.group, alive, len(bundle)))
	}
	return out, nil
}

// AllreduceInt64 folds one int64 per rank with op (associative and
// commutative) and returns the result on every rank.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) (int64, error) {
	seq := c.peekSeq()
	c.r.rec.CollBeginN("allreduce", c.st.id, seq)
	defer c.r.rec.CollEndN("allreduce", c.st.id, seq)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	all, err := c.Allgather(buf[:])
	if err != nil {
		return 0, err
	}
	acc := v
	for r, d := range all {
		if r == c.rank {
			continue
		}
		if len(d) != 8 {
			lens := make([]int, len(all))
			for i, x := range all {
				lens[i] = len(x)
			}
			panic(fmt.Sprintf("mpi: allreduce entry %d has %d bytes: comm=%d rank=%d opSeq=%v revoked=%v lens=%v",
				r, len(d), c.st.id, c.rank, c.st.opSeq, c.st.revoked, lens))
		}
		acc = op(acc, int64(binary.BigEndian.Uint64(d)))
	}
	return acc, nil
}

// Alltoallv exchanges bufs[i] (destined to comm rank i) among all ranks and
// returns the received buffers indexed by source rank. It runs a ring
// schedule of Size-1 pairwise exchange steps, the pattern the shuffle phase
// uses; a failure mid-ring interrupts each rank at whichever step touches
// the failed process.
func (c *Comm) Alltoallv(bufs [][]byte) ([][]byte, error) {
	n := c.Size()
	if len(bufs) != n {
		return nil, fmt.Errorf("mpi: Alltoallv needs %d buffers, got %d", n, len(bufs))
	}
	seq := c.nextSeq()
	c.r.rec.CollBeginN("alltoallv", c.st.id, seq)
	defer c.r.rec.CollEndN("alltoallv", c.st.id, seq)
	out := make([][]byte, n)
	out[c.rank] = bufs[c.rank]
	for step := 1; step < n; step++ {
		dst := (c.rank + step) % n
		src := (c.rank - step + n) % n
		if _, err := c.send(dst, internalTag(seq, 3), bufs[dst]); err != nil {
			return nil, c.raise(err)
		}
		m, err := c.recv(src, internalTag(seq, 3))
		if err != nil {
			return nil, c.raise(err)
		}
		out[src] = m.Data
	}
	return out, nil
}

// encodeBundle serializes a rank→payload map with length prefixes.
func encodeBundle(b map[int][]byte) []byte {
	// Deterministic order.
	total := 4
	for _, d := range b {
		total += 8 + len(d)
	}
	out := make([]byte, 0, total)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(b)))
	out = append(out, hdr[:4]...)
	// Iterate in ascending rank order for determinism.
	maxRank := -1
	for r := range b {
		if r > maxRank {
			maxRank = r
		}
	}
	for r := 0; r <= maxRank; r++ {
		d, ok := b[r]
		if !ok {
			continue
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(r))
		binary.BigEndian.PutUint32(hdr[4:], uint32(len(d)))
		out = append(out, hdr[:]...)
		out = append(out, d...)
	}
	return out
}

// decodeBundle reverses encodeBundle.
func decodeBundle(data []byte) (map[int][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("mpi: short bundle")
	}
	count := int(binary.BigEndian.Uint32(data[:4]))
	data = data[4:]
	out := make(map[int][]byte, count)
	for i := 0; i < count; i++ {
		if len(data) < 8 {
			return nil, fmt.Errorf("mpi: truncated bundle entry")
		}
		r := int(binary.BigEndian.Uint32(data[:4]))
		l := int(binary.BigEndian.Uint32(data[4:8]))
		data = data[8:]
		if len(data) < l {
			return nil, fmt.Errorf("mpi: truncated bundle payload")
		}
		out[r] = data[:l:l]
		data = data[l:]
	}
	return out, nil
}
